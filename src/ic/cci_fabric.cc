#include "ic/cci_fabric.hh"

#include "sim/check.hh"
#include "sim/logging.hh"

namespace dagger::ic {

CciFabric::CciFabric(EventQueue &eq, IfaceKind kind, unsigned ports,
                     UpiCost upi, PcieCost pcie)
    : _eq(eq), _kind(kind), _upi(upi), _pcie(pcie),
      _toNic(eq,
             isMemoryInterconnect(kind) ? upi.lineService
                                        : pcie.lineService,
             isMemoryInterconnect(kind) ? upi.txnOverhead
                                        : pcie.txnOverhead,
             ports),
      _toHost(eq,
              isMemoryInterconnect(kind) ? upi.lineService
                                         : pcie.lineService,
              isMemoryInterconnect(kind) ? upi.txnOverhead
                                         : pcie.txnOverhead,
              ports),
      _maxOutstanding(isMemoryInterconnect(kind) ? upi.maxOutstanding
                                                 : pcie.maxOutstanding)
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
CciFabric::hostTxCpuCost(unsigned batch) const
{
    return ic::hostTxCpuCost(_kind, batch, _upi, _pcie);
}

Tick
CciPort::hostPollPenalty() const
{
    // Only the UPI invalidation path polls; CXL writes push directly.
    if (_fabric.kind() != IfaceKind::Upi)
        return 0;
    return _pollMode == PollMode::LocalCache
        ? _fabric.upi().ownershipBounceCost
        : 0;
}

void
CciPort::fetch(unsigned lines, EventFn done)
{
    Tick extra = hostTxBaseLatency(_fabric.kind(), _fabric.upi(),
                                   _fabric.pcie());
    if (_fabric.kind() == IfaceKind::Upi && _pollMode == PollMode::Llc)
        extra += _fabric.upi().llcPollExtra;
    ++_fetchTxns;
    _linesFetched += lines;
    submit(Op{std::move(done), extra, lines, true});
}

void
CciPort::post(unsigned lines, EventFn done)
{
    const Tick extra = isMemoryInterconnect(_fabric.kind())
        ? _fabric.upi().postLatency
        : _fabric.pcie().postLatency;
    ++_postTxns;
    _linesPosted += lines;
    submit(Op{std::move(done), extra, lines, false});
}

void
CciPort::bookkeep(EventFn done)
{
    // Bookkeeping rides back piggybacked on read responses / posted
    // metadata: it costs delivery latency but no dedicated channel
    // occupancy (the paper pipelines it with in-flight requests,
    // §4.4).  CXL device buffers are NIC-owned: release is immediate.
    const Tick extra = _fabric.kind() == IfaceKind::Cxl ? 0
        : _fabric.kind() == IfaceKind::Upi
        ? _fabric.upi().bookkeepLatency
        : _fabric.pcie().postLatency;
    // Pass the completion straight through instead of wrapping it: an
    // EventClosure scheduled from an EventClosure rvalue is a plain
    // move, so the caller's inline storage survives end to end.  An
    // empty `done` still schedules a no-op so event counts (and thus
    // seq-number assignment) match the previous engine exactly.
    if (done)
        _fabric._eq.schedule(extra, std::move(done),
                             sim::Priority::Hardware);
    else
        _fabric._eq.schedule(extra, [] {}, sim::Priority::Hardware);
}

void
CciPort::rawRead(EventFn done)
{
    // Idle reads are hardware-pipelined: no FSM transaction overhead.
    submit(Op{std::move(done), _fabric.upi().fetchLatency, 1, true, true});
}

void
CciPort::submit(Op op)
{
    DAGGER_DCHECK(op.lines > 0, "zero-line CCI-P op on port ", _id);
    if (_inFlight >= _fabric._maxOutstanding) {
        ++_stalls;
        _pendingWindow.push_back(std::move(op));
        return;
    }
    issue(std::move(op));
}

void
CciPort::issue(Op op)
{
    ++_inFlight;
    // §4.4: a port may keep at most maxOutstanding (default 128) CCI-P
    // transactions in flight; anything above means the pending-window
    // bookkeeping in submit()/completed() has desynchronized.
    DAGGER_INVARIANT(_inFlight <= _fabric._maxOutstanding,
                     "port ", _id, " exceeded the outstanding-transaction "
                     "window: ", _inFlight, " > ",
                     _fabric._maxOutstanding);
    Channel &ch = op.to_nic ? _fabric._toNic : _fabric._toHost;
    const Tick extra = op.extra_latency;
    // Park the completion instead of capturing it: a closure holding an
    // EventFn cannot fit the inline buffer, so capturing `done` would
    // heap-allocate both the grant and the arrival closure.
    const sim::SlotTable<EventFn>::Slot slot = _done.park(std::move(op.done));
    auto granted = [this, extra, slot] {
        // Channel service finished; propagation takes `extra`.
        auto arrived = [this, slot] {
            EventFn done = _done.take(slot);
            completed();
            if (done)
                done();
        };
        static_assert(sim::EventClosure::fitsInline<decltype(arrived)>());
        _fabric._eq.schedule(extra, std::move(arrived),
                             sim::Priority::Hardware);
    };
    static_assert(sim::EventClosure::fitsInline<decltype(granted)>());
    ch.request(_id, op.lines, std::move(granted), op.streamed);
}

void
CciPort::completed()
{
    dagger_assert(_inFlight > 0, "completion without in-flight op");
    --_inFlight;
    if (!_pendingWindow.empty()) {
        Op op = std::move(_pendingWindow.front());
        _pendingWindow.pop_front();
        issue(std::move(op));
    }
}

} // namespace dagger::ic
