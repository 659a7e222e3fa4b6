#include "rpc/client.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dagger::rpc {

template <typename Fn>
void
RpcClient::executeWithMessage(sim::Tick cost, proto::RpcMessage &&msg,
                              Fn fn)
{
    // _thread runs its events in execute() order, so the event
    // scheduled here pops exactly the message pushed here.  Parking the
    // message instead of capturing it keeps the closure inline.
    _threadMsgs.push_back(std::move(msg));
    auto run = [this, fn] {
        proto::RpcMessage m = std::move(_threadMsgs.front());
        _threadMsgs.pop_front();
        fn(m);
    };
    static_assert(sim::EventClosure::fitsInline<decltype(run)>());
    _thread.execute(cost, std::move(run));
}

void
RpcClient::sendUntracked(const proto::RpcMessage &msg)
{
    if (_node.flow(_flow).tx.push(msg))
        ++_sent;
    else
        ++_sendFailures;
}

RpcClient::RpcClient(DaggerNode &node, unsigned flow, HwThread &thread)
    : _node(node), _flow(flow), _thread(thread)
{
    dagger_assert(flow < node.numFlows(), "client flow out of range");
    installRxNotify();
}

void
RpcClient::installRxNotify()
{
    _node.flow(_flow).rx.setNotify([this] {
        if (_rxScheduled)
            return;
        _rxScheduled = true;
        processResponses();
    });
}

void
RpcClient::setBestEffort(bool on)
{
    _bestEffort = on;
    if (on) {
        _node.flow(_flow).rx.setNotify({});
        // A drain chain in flight stops at its next processResponses()
        // step; the flag must not stay latched, or switching
        // best-effort back off would never drain the ring again.
        _rxScheduled = false;
        return;
    }
    installRxNotify();
    // Drain whatever piled up while best-effort was on.
    if (!_rxScheduled && _node.flow(_flow).rx.occupied() > 0) {
        _rxScheduled = true;
        processResponses();
    }
}

void
RpcClient::callAsyncOn(proto::ConnId conn, proto::FnId fn, const void *data,
                       std::size_t len, ResponseCb cb)
{
    issueCall(conn, fn, data, len, std::move(cb), {});
}

void
RpcClient::callAsyncStatus(proto::FnId fn, const void *data, std::size_t len,
                           StatusCb cb)
{
    issueCall(_conn, fn, data, len, {}, std::move(cb));
}

void
RpcClient::issueCall(proto::ConnId conn, proto::FnId fn, const void *data,
                     std::size_t len, ResponseCb cb, StatusCb scb)
{
    dagger_assert(conn != 0, "callAsync without a connection");
    if (len > proto::kMaxPayloadBytes) {
        // Recoverable API error: the wire format cannot carry this
        // payload (payloadLen is 16-bit), so the call is refused
        // before any simulated work instead of tripping an assert.
        ++_sendFailures;
        if (scb) {
            proto::RpcMessage empty;
            scb(CallStatus::Rejected, empty);
        }
        return;
    }
    DaggerSystem &sys = _node.system();
    sim::Tick cost = sys.sendCpuCost(_node) +
                     _node.nicDev().cciPort().hostPollPenalty();
    if (_shared)
        cost += sys.swCost().srqLockCost;

    const proto::RpcId rpc_id = _nextRpcId++;
    proto::PayloadBuf payload(data, len);
    if (_bestEffort) {
        // Fire and forget: no pending entry, no completion tracking.
        executeWithMessage(
            cost,
            proto::RpcMessage(conn, rpc_id, fn, proto::MsgType::Request,
                              std::move(payload)),
            [this](proto::RpcMessage &msg) { sendUntracked(msg); });
        return;
    }
    Pending entry;
    entry.cb = std::move(cb);
    entry.scb = std::move(scb);
    if (_retry.enabled()) {
        // Keep what a resend needs; without a policy this handle (and
        // the timer) is skipped and tracked calls cost what they
        // always did.
        entry.conn = conn;
        entry.fn = fn;
        entry.payload = payload;
    }
    _pending.emplace(rpc_id, std::move(entry));

    const sim::Tick issued_at = _node.eq().now();
    auto send = [this, rpc_id, issued_at](proto::RpcMessage &msg) {
        auto it = _pending.find(rpc_id);
        if (it == _pending.end())
            return; // cancelled
        if (!_node.flow(_flow).tx.push(msg)) {
            ++_sendFailures;
            if (_retry.enabled()) {
                // Full ring on the first copy: keep the entry and let
                // a short re-attempt timer carry it instead of
                // dropping the call on the floor.
                ++_resendDrops;
                ++_node.system().reliability().resendDrops;
                armResendRetry(rpc_id);
                return;
            }
            _pending.erase(it);
            return;
        }
        const sim::Tick now = _node.eq().now();
        it->second.sentAt = now;
        ++_sent;
        if (_retry.enabled()) {
            // The timeout budget starts when the request reaches the
            // TX ring: arming at issue time raced the send lambda
            // under CPU backlog, so the timer could fire — and
            // retransmit — before the first copy was ever sent.
            if (now - issued_at >= _retry.timeout) {
                ++_spuriousArms;
                ++_node.system().reliability().spuriousArms;
            }
            armCallTimer(rpc_id, _retry.timeout);
        }
    };
    executeWithMessage(cost,
                       proto::RpcMessage(conn, rpc_id, fn,
                                         proto::MsgType::Request,
                                         std::move(payload)),
                       send);
}

sim::Tick
RpcClient::retryTimeout(unsigned attempt) const
{
    double t = static_cast<double>(_retry.timeout);
    for (unsigned i = 0; i < attempt; ++i)
        t *= _retry.backoff;
    if (_retry.maxTimeout > 0)
        t = std::min(t, static_cast<double>(_retry.maxTimeout));
    return static_cast<sim::Tick>(t);
}

void
RpcClient::rememberRetried(proto::RpcId rpc_id)
{
    _retriedDone.insert(rpc_id);
    if (_retriedDone.size() > kRetriedDoneCap)
        _retriedDone.erase(_retriedDone.begin()); // oldest id first
}

void
RpcClient::armCallTimer(proto::RpcId rpc_id, sim::Tick timeout)
{
    auto expire = [this, rpc_id] { onCallTimeout(rpc_id); };
    // One timer per in-flight retried call; hot under loss, so it must
    // stay on the event pool's allocation-free path.
    static_assert(sim::EventClosure::fitsInline<decltype(expire)>());
    _node.eq().schedule(timeout, std::move(expire));
}

void
RpcClient::onCallTimeout(proto::RpcId rpc_id)
{
    auto it = _pending.find(rpc_id);
    if (it == _pending.end())
        return; // completed before the timer fired
    Pending &p = it->second;
    if (p.attempt >= _retry.maxRetries) {
        // Budget exhausted: complete the call with a status instead of
        // leaving a silent orphan behind.
        ++_timeouts;
        ++_node.system().reliability().timeouts;
        rememberRetried(rpc_id);
        StatusCb scb = std::move(p.scb);
        _pending.erase(it);
        if (scb) {
            proto::RpcMessage empty;
            scb(CallStatus::TimedOut, empty);
        }
        return;
    }
    ++p.attempt;
    ++_retriesSent;
    ++_node.system().reliability().retries;
    resend(rpc_id);
    armCallTimer(rpc_id, retryTimeout(p.attempt));
}

void
RpcClient::resend(proto::RpcId rpc_id)
{
    auto it = _pending.find(rpc_id);
    if (it == _pending.end())
        return; // resolved meanwhile
    Pending &p = it->second;
    proto::RpcMessage msg(p.conn, rpc_id, p.fn, proto::MsgType::Request,
                          p.payload);
    DaggerSystem &sys = _node.system();
    sim::Tick cost = sys.sendCpuCost(_node) +
                     _node.nicDev().cciPort().hostPollPenalty();
    if (_shared)
        cost += sys.swCost().srqLockCost;
    auto send = [this, rpc_id](proto::RpcMessage &msg) {
        auto it = _pending.find(rpc_id);
        if (it == _pending.end())
            return; // resolved while the resend was queued
        if (!_node.flow(_flow).tx.push(msg)) {
            // A full backoff used to elapse here with nothing in
            // flight; re-attempt on a short timer instead, and make
            // the storm visible.
            ++_sendFailures;
            ++_resendDrops;
            ++_node.system().reliability().resendDrops;
            armResendRetry(rpc_id);
            return;
        }
        if (it->second.sentAt == 0) {
            // First copy to reach the ring (the issue-time send was
            // dropped): start the round-trip clock and the timeout.
            it->second.sentAt = _node.eq().now();
            ++_sent;
            if (_retry.enabled())
                armCallTimer(rpc_id, _retry.timeout);
        }
    };
    executeWithMessage(cost, std::move(msg), send);
}

void
RpcClient::armResendRetry(proto::RpcId rpc_id)
{
    auto it = _pending.find(rpc_id);
    if (it == _pending.end() || it->second.resendQueued)
        return;
    it->second.resendQueued = true;
    // Deterministic short re-attempt, a fraction of the first timeout:
    // long enough for the NIC to drain ring entries, far shorter than
    // a backoff step.
    const sim::Tick delay = std::max<sim::Tick>(1, _retry.timeout / 8);
    auto fire = [this, rpc_id] {
        auto it2 = _pending.find(rpc_id);
        if (it2 == _pending.end())
            return;
        it2->second.resendQueued = false;
        resend(rpc_id);
    };
    // Hot under ring backpressure; keep it on the event pool's
    // allocation-free path.
    static_assert(sim::EventClosure::fitsInline<decltype(fire)>());
    _node.eq().schedule(delay, std::move(fire));
}

void
RpcClient::callOneWay(proto::FnId fn, const void *data, std::size_t len)
{
    dagger_assert(_conn != 0, "callOneWay without a connection");
    if (len > proto::kMaxPayloadBytes) {
        ++_sendFailures; // recoverable: refused before any work
        return;
    }
    DaggerSystem &sys = _node.system();
    sim::Tick cost = sys.sendCpuCost(_node) +
                     _node.nicDev().cciPort().hostPollPenalty();
    if (_shared)
        cost += sys.swCost().srqLockCost;
    executeWithMessage(cost,
                       proto::RpcMessage(_conn, _nextRpcId++, fn,
                                         proto::MsgType::Request, data, len),
                       [this](proto::RpcMessage &msg) { sendUntracked(msg); });
}

void
RpcClient::processResponses()
{
    if (_bestEffort) {
        _rxScheduled = false;
        return; // responses pile up (and overflow) in the RX ring
    }
    proto::RpcMessage msg;
    if (!_node.flow(_flow).rx.popMessage(msg)) {
        _rxScheduled = false;
        return;
    }
    const SwCost &costs = _node.system().swCost();
    auto complete = [this](proto::RpcMessage &msg) {
        auto it = _pending.find(msg.rpcId());
        if (it == _pending.end()) {
            if (_retriedDone.count(msg.rpcId())) {
                // Duplicate or post-timeout response of a retried call:
                // accounted, not an unknown orphan — and never
                // delivered twice.
                ++_lateResponses;
                ++_node.system().reliability().lateResponses;
            } else {
                ++_orphans;
            }
        } else {
            ++_responses;
            ++_node.system().reliability().completions;
            const sim::Tick now = _node.eq().now();
            if (it->second.sentAt)
                _latency.record(now - it->second.sentAt);
            if (it->second.attempt > 0)
                rememberRetried(msg.rpcId());
            ResponseCb cb = std::move(it->second.cb);
            StatusCb scb = std::move(it->second.scb);
            _pending.erase(it);
            if (scb)
                scb(CallStatus::Ok, msg);
            else if (cb)
                cb(msg);
            else
                _cq.push(std::move(msg));
        }
        processResponses();
    };
    executeWithMessage(costs.completionCost, std::move(msg), complete);
}

RpcClient &
RpcClientPool::addClient(unsigned flow, HwThread &thread)
{
    _clients.push_back(std::make_unique<RpcClient>(_node, flow, thread));
    return *_clients.back();
}

sim::Histogram
RpcClientPool::aggregateLatency() const
{
    sim::Histogram h("pool_rtt");
    for (const auto &c : _clients)
        h.merge(c->_latency);
    return h;
}

std::uint64_t
RpcClientPool::totalResponses() const
{
    std::uint64_t n = 0;
    for (const auto &c : _clients)
        n += c->_responses;
    return n;
}

} // namespace dagger::rpc
