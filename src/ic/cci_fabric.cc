#include "ic/cci_fabric.hh"

#include "sim/check.hh"
#include "sim/logging.hh"

namespace dagger::ic {

CciFabric::CciFabric(EventQueue &eq, const IfaceProfile &profile,
                     unsigned ports)
    : _eq(eq), _profile(profile),
      _toNic(eq, profile.lineService, profile.txnOverhead, ports,
             [this](unsigned port, std::uint32_t slot) {
                 _ports[port]->serviced(slot);
             }),
      _toHost(eq, profile.lineService, profile.txnOverhead, ports,
              [this](unsigned port, std::uint32_t slot) {
                  _ports[port]->serviced(slot);
              })
{
    _ports.reserve(ports);
    for (unsigned i = 0; i < ports; ++i)
        _ports.emplace_back(std::unique_ptr<CciPort>(new CciPort(*this, i)));
}

CciPort &
CciFabric::addPort()
{
    const unsigned id = _toNic.addPort();
    const unsigned id2 = _toHost.addPort();
    dagger_assert(id == id2 && id == _ports.size(),
                  "channel/port id drift");
    _ports.emplace_back(std::unique_ptr<CciPort>(new CciPort(*this, id)));
    if (_metricScope)
        registerPortMetrics(*_ports.back());
    return *_ports.back();
}

void
CciFabric::registerMetrics(sim::MetricScope scope)
{
    dagger_assert(!_metricScope, "fabric metrics registered twice");
    _metricScope = scope;
    // The two channel directions.  The utilization gauges are windowed
    // over the whole simulated time.
    scope.gauge("to_nic.utilization",
                [this] { return _toNic.utilization(_eq.now()); });
    scope.gauge("to_host.utilization",
                [this] { return _toHost.utilization(_eq.now()); });
    scope.intGauge("to_nic.lines", [this] { return _toNic.linesServiced(); });
    scope.intGauge("to_host.lines",
                   [this] { return _toHost.linesServiced(); });
    scope.intGauge("to_nic.txns", [this] { return _toNic.txnsServiced(); });
    scope.intGauge("to_host.txns", [this] { return _toHost.txnsServiced(); });
    scope.intGauge("to_nic.busy_ticks",
                   [this] {
                       return static_cast<std::uint64_t>(_toNic.busyTicks());
                   });
    scope.intGauge("to_host.busy_ticks",
                   [this] {
                       return static_cast<std::uint64_t>(_toHost.busyTicks());
                   });
    for (auto &port : _ports)
        registerPortMetrics(*port);
}

void
CciFabric::registerPortMetrics(CciPort &port)
{
    std::string leaf = "port" + std::to_string(port.id());
    sim::MetricScope scope = _metricScope->sub(leaf);
    scope.intGauge("fetch_txns", [&port] { return port.fetchTxns(); });
    scope.intGauge("post_txns", [&port] { return port.postTxns(); });
    scope.intGauge("lines_fetched", [&port] { return port.linesFetched(); });
    scope.intGauge("lines_posted", [&port] { return port.linesPosted(); });
    scope.intGauge("stalls", [&port] { return port.stalls(); });
}

CciPort &
CciFabric::port(unsigned i)
{
    dagger_assert(i < _ports.size(), "bad port index ", i);
    return *_ports[i];
}

Tick
CciPort::hostPollPenalty() const
{
    return _pollMode == PollMode::LocalCache
        ? _fabric._profile.ownershipBounceCost
        : 0;
}

void
CciPort::fetch(unsigned lines, EventFn done)
{
    const IfaceProfile &p = _fabric._profile;
    const Tick extra =
        p.fetchLatency + (_pollMode == PollMode::Llc ? p.llcPollExtra : 0);
    ++_fetchTxns;
    _linesFetched += lines;
    submit(std::move(done), extra, lines, true);
}

void
CciPort::post(unsigned lines, EventFn done)
{
    ++_postTxns;
    _linesPosted += lines;
    submit(std::move(done), _fabric._profile.postLatency, lines, false);
}

void
CciPort::bookkeep(EventFn done)
{
    // Bookkeeping rides back piggybacked on read responses / posted
    // metadata: it costs delivery latency but no dedicated channel
    // occupancy (the paper pipelines it with in-flight requests,
    // §4.4).  Pass the completion straight through instead of wrapping
    // it: an EventClosure scheduled from an EventClosure rvalue is a
    // plain move, so the caller's inline storage survives end to end.
    _fabric._eq.schedule(_fabric._profile.bookkeepLatency, std::move(done),
                         sim::Priority::Hardware);
}

void
CciPort::rawRead(EventFn done)
{
    // Idle reads are hardware-pipelined: no FSM transaction overhead.
    submit(std::move(done), _fabric._profile.fetchLatency, 1, true, true);
}

void
CciPort::submit(EventFn done, Tick extra, unsigned lines, bool to_nic,
                bool streamed)
{
    DAGGER_DCHECK(lines > 0, "zero-line CCI-P op on port ", _id);
    // Park the completion once, here: the window queue, the channel
    // queue and every closure up to its arrival carry only the slot,
    // so each of them is a few trivially copied words.
    const Op op{_pending.park(Pending{std::move(done), extra}), lines,
                to_nic, streamed};
    if (_inFlight >= _fabric._profile.maxOutstanding) {
        ++_stalls;
        _pendingWindow.push_back(op);
        return;
    }
    issue(op);
}

void
CciPort::issue(Op op)
{
    ++_inFlight;
    // §4.4: a port may keep at most maxOutstanding (default 128) CCI-P
    // transactions in flight; anything above means the pending-window
    // bookkeeping in submit()/completed() has desynchronized.
    DAGGER_INVARIANT(_inFlight <= _fabric._profile.maxOutstanding,
                     "port ", _id, " exceeded the outstanding-transaction "
                     "window: ", _inFlight, " > ",
                     _fabric._profile.maxOutstanding);
    Channel &ch = op.to_nic ? _fabric._toNic : _fabric._toHost;
    ch.request(_id, op.lines, op.slot, op.streamed);
}

void
CciPort::serviced(Slot slot)
{
    // Channel service finished; propagation takes the extra latency.
    auto arrived = [this, slot] {
        const Pending p = _pending.take(slot);
        completed();
        if (p.done)
            p.done();
    };
    static_assert(sim::EventClosure::relocatesByMemcpy<decltype(arrived)>());
    _fabric._eq.schedule(_pending.at(slot).extra_latency, std::move(arrived),
                         sim::Priority::Hardware);
}

void
CciPort::completed()
{
    dagger_assert(_inFlight > 0, "completion without in-flight op");
    --_inFlight;
    if (!_pendingWindow.empty()) {
        const Op op = _pendingWindow.front();
        _pendingWindow.pop_front();
        issue(op);
    }
}

} // namespace dagger::ic
