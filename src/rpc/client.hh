/**
 * @file
 * RpcClient: the client half of the Dagger API (§4.2).
 *
 * Each RpcClient is 1-to-1 mapped to a NIC flow and its RX/TX ring
 * pair (Fig. 7); a pool of clients is a vector of them, one per flow.
 * Calls are asynchronous: the continuation receives the response on
 * the client's hardware thread.  Several connections may share one
 * client's rings — the Shared Receive Queue model — in which case an
 * explicit lock cost is charged on the TX path.
 */

#ifndef DAGGER_RPC_CLIENT_HH
#define DAGGER_RPC_CLIENT_HH

#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>

#include "proto/wire.hh"
#include "rpc/cpu.hh"
#include "rpc/system.hh"
#include "sim/ring_queue.hh"
#include "sim/stats.hh"

namespace dagger::rpc {

/** Outcome of a tracked call, delivered to a StatusCb. */
enum class CallStatus : std::uint8_t {
    Ok,       ///< response arrived; the message argument is valid
    TimedOut, ///< retry budget exhausted; the message argument is empty
    Rejected, ///< payload exceeds proto::kMaxPayloadBytes; never sent
};

/**
 * Per-call timeout + retry policy (off by default: timeout == 0).
 * Each retry multiplies the timeout by @ref backoff, capped at
 * @ref maxTimeout; after @ref maxRetries resends the call completes
 * with CallStatus::TimedOut instead of lingering as a silent orphan.
 */
struct RetryPolicy
{
    sim::Tick timeout = 0;    ///< first-attempt timeout (0 = disabled)
    unsigned maxRetries = 3;  ///< resend budget after the first attempt
    double backoff = 2.0;     ///< timeout multiplier per retry
    sim::Tick maxTimeout = 0; ///< backoff cap (0 = uncapped)

    bool enabled() const { return timeout > 0; }
};

/** The client endpoint for one NIC flow. */
class RpcClient
{
  public:
    using ResponseCb = std::function<void(const proto::RpcMessage &)>;
    /** Status-aware continuation: fires exactly once per call. */
    using StatusCb =
        std::function<void(CallStatus, const proto::RpcMessage &)>;

    /**
     * @param node   the Dagger node (NIC + rings) this client uses
     * @param flow   NIC flow owned by this client
     * @param thread hardware thread the client's software runs on
     */
    RpcClient(DaggerNode &node, unsigned flow, HwThread &thread);

    RpcClient(const RpcClient &) = delete;
    RpcClient &operator=(const RpcClient &) = delete;

    /** Bind the default connection used by callAsync. */
    void setConnection(proto::ConnId conn) { _conn = conn; }
    proto::ConnId connection() const { return _conn; }

    /**
     * Issue a non-blocking call on the default connection.
     * The continuation runs on this client's hardware thread when the
     * response arrives; with no continuation the response is counted
     * (responses(), latency()) and released.
     */
    void
    callAsync(proto::FnId fn, const void *data, std::size_t len,
              ResponseCb cb = {})
    {
        callAsyncOn(_conn, fn, data, len, std::move(cb));
    }

    /** Issue a non-blocking call on an explicit connection (SRQ). */
    void callAsyncOn(proto::ConnId conn, proto::FnId fn, const void *data,
                     std::size_t len, ResponseCb cb = {});

    /**
     * Issue a tracked call whose continuation also reports the call
     * outcome: CallStatus::Ok with the response, or (when a
     * RetryPolicy is set and the budget runs out) CallStatus::TimedOut
     * with an empty message.  Fires exactly once per call.
     */
    void callAsyncStatus(proto::FnId fn, const void *data, std::size_t len,
                         StatusCb cb);

    /** POD-payload convenience wrapper for callAsyncStatus. */
    template <typename T>
    void
    callPodStatus(proto::FnId fn, const T &value, StatusCb cb)
    {
        callAsyncStatus(fn, &value, sizeof(T), std::move(cb));
    }

    /**
     * Install a per-call timeout/retry policy.  When enabled, the
     * client keeps the payload handle per in-flight call and resends
     * it on timeout with capped exponential backoff; budget exhaustion
     * is surfaced through the StatusCb (or just the timeouts() counter
     * for plain-callback calls).
     */
    void setRetryPolicy(RetryPolicy policy) { _retry = policy; }

    /**
     * One-way call: fire-and-forget, no response expected and no
     * completion-tracking state kept (IDL `returns(void)` rpcs).
     */
    void callOneWay(proto::FnId fn, const void *data, std::size_t len);

    /** POD-payload convenience wrapper. */
    template <typename T>
    void
    callPod(proto::FnId fn, const T &value, ResponseCb cb = {})
    {
        callAsync(fn, &value, sizeof(T), std::move(cb));
    }

    /**
     * Mark this client's rings as shared between multiple software
     * threads; charges the SRQ lock cost on every send (§4.2).
     */
    void setSharedByThreads(bool shared) { _shared = shared; }

    /**
     * Best-effort mode (§5.3's 16.5 Mrps peak): fire-and-forget sends
     * with no completion tracking; responses pile up in the RX ring
     * and overflow as drops ("best-effort request processing by
     * allowing arbitrary packet drops").
     */
    void setBestEffort(bool on);

    std::uint64_t sent() const { return _sent; }
    std::uint64_t responses() const { return _responses; }
    std::uint64_t sendFailures() const { return _sendFailures; }
    std::uint64_t orphanResponses() const { return _orphans; }
    /** Calls that exhausted the retry budget. */
    std::uint64_t timeouts() const { return _timeouts; }
    /** Resends issued by the retry policy. */
    std::uint64_t retriesSent() const { return _retriesSent; }
    /** Responses that arrived after their call was retried/timed out. */
    std::uint64_t lateResponses() const { return _lateResponses; }
    /**
     * Timer arms whose send was delayed past the first timeout by CPU
     * backlog — calls that the old issue-time arming would have
     * spuriously retransmitted before they ever reached the TX ring.
     */
    std::uint64_t spuriousArms() const { return _spuriousArms; }
    /** Resend attempts that found the TX ring full. */
    std::uint64_t resendDrops() const { return _resendDrops; }
    std::size_t pendingCalls() const { return _pending.size(); }

    /** Round-trip latency of completed calls, in ticks. */
    sim::Histogram &latency() { return _latency; }

    HwThread &thread() { return _thread; }
    DaggerNode &node() { return _node; }
    unsigned flow() const { return _flow; }

  private:
    void installRxNotify();
    void processResponses();
    /**
     * Charge @p cost on the client's thread, then run @p fn with
     * @p msg.  The message waits in _threadMsgs, not in the closure.
     */
    template <typename Fn>
    void executeWithMessage(sim::Tick cost, proto::RpcMessage &&msg, Fn fn);
    /** CPU cost of one send: stub, interconnect poll, SRQ lock. */
    sim::Tick sendCost() const;
    /** Push @p msg with no completion tracking (best-effort, one-way). */
    void sendUntracked(const proto::RpcMessage &msg);
    /**
     * Size-check @p len, allocate an rpc id and send.  One-way calls
     * and best-effort mode take the untracked path; any other call
     * gets a pending entry.
     */
    void issueCall(proto::ConnId conn, proto::FnId fn, const void *data,
                   std::size_t len, ResponseCb cb, StatusCb scb,
                   bool one_way = false);
    /**
     * Charge the send cost, then push a copy of a tracked call.
     * @p first marks the issue-time copy; resends pass false.
     */
    void sendTracked(proto::RpcMessage &&msg, bool first);
    void armCallTimer(proto::RpcId rpc_id, sim::Tick timeout);
    void onCallTimeout(proto::RpcId rpc_id);
    void resend(proto::RpcId rpc_id);
    void armResendRetry(proto::RpcId rpc_id);
    sim::Tick retryTimeout(unsigned attempt) const;
    void rememberRetried(proto::RpcId rpc_id);

    DaggerNode &_node;
    unsigned _flow;
    HwThread &_thread;
    proto::ConnId _conn = 0;
    proto::RpcId _nextRpcId = 1;
    bool _shared = false;
    bool _bestEffort = false;
    bool _rxScheduled = false;
    RetryPolicy _retry;

    struct Pending
    {
        ResponseCb cb;
        StatusCb scb;
        sim::Tick sentAt = 0;
        unsigned attempt = 0; ///< resends issued so far
        /** A short ring-full re-attempt is queued; suppresses a second
         *  chain when the backoff timer fires while one is pending. */
        bool resendQueued = false;
        // Resend state, kept only while a RetryPolicy is enabled.  The
        // payload handle is shared with the in-flight message: resends
        // re-wrap it, they never re-copy the bytes.
        proto::ConnId conn = 0;
        proto::FnId fn = 0;
        proto::PayloadBuf payload;
    };
    std::unordered_map<proto::RpcId, Pending> _pending;

    /** Ids of retried/timed-out calls, so a late (or duplicate)
     *  response counts as such instead of as an unknown orphan.
     *  Bounded; ordered so eviction is deterministic. */
    std::set<proto::RpcId> _retriedDone;
    static constexpr std::size_t kRetriedDoneCap = 1024;

    /** Messages of scheduled _thread events, in execute() order. */
    sim::RingQueue<proto::RpcMessage> _threadMsgs;

    sim::Histogram _latency;
    std::uint64_t _sent = 0;
    std::uint64_t _responses = 0;
    std::uint64_t _sendFailures = 0;
    std::uint64_t _orphans = 0;
    std::uint64_t _timeouts = 0;
    std::uint64_t _retriesSent = 0;
    std::uint64_t _lateResponses = 0;
    std::uint64_t _spuriousArms = 0;
    std::uint64_t _resendDrops = 0;
};

} // namespace dagger::rpc

#endif // DAGGER_RPC_CLIENT_HH
