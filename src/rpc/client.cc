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
    _thread.execute(cost, std::move(run));
}

sim::Tick
RpcClient::sendCost() const
{
    const DaggerSystem &sys = _node.system();
    sim::Tick cost = sys.sendCpuCost(_node) +
                     _node.nicDev().cciPort().hostPollPenalty();
    if (_shared)
        cost += sys.swCost().srqLockCost;
    return cost;
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
                     std::size_t len, ResponseCb cb, StatusCb scb,
                     bool one_way)
{
    dagger_assert(conn != 0, "call without a connection");
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
    const proto::RpcId rpc_id = _nextRpcId++;
    proto::PayloadBuf payload(data, len);
    if (one_way || _bestEffort) {
        // Fire and forget: no pending entry, no completion tracking.
        executeWithMessage(
            sendCost(),
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
    sendTracked(proto::RpcMessage(conn, rpc_id, fn, proto::MsgType::Request,
                                  std::move(payload)),
                true);
}

void
RpcClient::sendTracked(proto::RpcMessage &&msg, bool first)
{
    const proto::RpcId rpc_id = msg.rpcId();
    const sim::Tick issued_at = _node.eq().now();
    auto send = [this, rpc_id, first, issued_at](proto::RpcMessage &msg) {
        auto it = _pending.find(rpc_id);
        if (it == _pending.end())
            return; // resolved while the send was queued
        if (!_node.flow(_flow).tx.push(msg)) {
            ++_sendFailures;
            if (first && !_retry.enabled()) {
                _pending.erase(it); // no policy would ever resend it
                return;
            }
            // Keep the entry and re-attempt on a short timer rather
            // than wait out a backoff with nothing in flight; count it
            // so a full-ring storm is visible.
            ++_resendDrops;
            ++_node.system().reliability().resendDrops;
            armResendRetry(rpc_id);
            return;
        }
        if (it->second.sentAt != 0)
            return; // a resend; the first copy already started the clock
        // First copy to reach the ring: start the round-trip clock and
        // the timeout.
        const sim::Tick now = _node.eq().now();
        it->second.sentAt = now;
        ++_sent;
        if (_retry.enabled()) {
            // The timeout budget starts when the request reaches the
            // TX ring: arming at issue time raced the send lambda
            // under CPU backlog, so the timer could fire — and
            // retransmit — before the first copy was ever sent.
            if (first && now - issued_at >= _retry.timeout) {
                ++_spuriousArms;
                ++_node.system().reliability().spuriousArms;
            }
            armCallTimer(rpc_id, _retry.timeout);
        }
    };
    executeWithMessage(sendCost(), std::move(msg), send);
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
    const Pending &p = it->second;
    sendTracked(proto::RpcMessage(p.conn, rpc_id, p.fn,
                                  proto::MsgType::Request, p.payload),
                false);
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
    _node.eq().schedule(delay, std::move(fire));
}

void
RpcClient::callOneWay(proto::FnId fn, const void *data, std::size_t len)
{
    issueCall(_conn, fn, data, len, {}, {}, true);
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
        }
        processResponses();
    };
    executeWithMessage(costs.completionCost, std::move(msg), complete);
}

} // namespace dagger::rpc
