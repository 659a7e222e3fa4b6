#include "nic/dagger_nic.hh"

#include "sim/check.hh"
#include "sim/logging.hh"

namespace dagger::nic {

namespace {
/// Hardware maximum frames per CCI-P transaction (auto-batch burst cap).
constexpr std::size_t kHwMaxBatch = proto::kBurstFrames;
/// Per-flow ingress stall capacity, in frames.  The request buffer's
/// free-slot FIFO backpressures the ingress pipeline ("drop or stall",
/// request_buffer.hh); we model the stall: frames wait here until a
/// table slot frees, and only a backlog beyond several maximum-size
/// messages (kMaxPayloadBytes / kFramePayload = 1366 frames each) is
/// dropped as drops_no_slot.
constexpr std::size_t kIngressStallFrames = 8192;
/// Poll-mode management window (§4.4.1 load-triggered switch).
constexpr sim::Tick kPollWindow = sim::usToTicks(10);
} // namespace

DaggerNic::DaggerNic(sim::EventQueue &eq, NicConfig cfg, SoftConfig soft,
                     ic::CciPort &port, net::SwitchPort &net)
    : _eq(eq), _cfg(cfg), _soft(soft), _port(port), _net(net),
      // NOTE: the connection manager must reference the *member*
      // config (_cfg), not the constructor parameter, which dies at
      // return.
      _cm(_cfg), _hcc(cfg.connMissPenalty),
      _reqBuffer(kHwMaxBatch * cfg.numFlows, cfg.numFlows),
      _flows(cfg.numFlows), _protocol(std::make_unique<ProtocolUnit>()),
      _rrLb(std::make_unique<RoundRobinLb>()),
      _staticLb(std::make_unique<StaticLb>()),
      _objLb(std::make_unique<ObjectLevelLb>(0, 8))
{
    dagger_assert(cfg.numFlows >= 1, "NIC needs at least one flow");
    _net.setReceiver([this](net::Packet pkt) { onNetReceive(std::move(pkt)); });
}

void
DaggerNic::attachFlow(unsigned flow, rpc::TxRing *tx, rpc::RxRing *rx)
{
    dagger_assert(flow < _flows.size(), "bad flow ", flow);
    dagger_assert(tx && rx, "attachFlow with null rings");
    _flows[flow].tx = tx;
    _flows[flow].rx = rx;
    tx->setNotify([this, flow] { maybeFetch(flow); });
}

bool
DaggerNic::openConnection(proto::ConnId id, const ConnTuple &tuple)
{
    dagger_assert(tuple.srcFlow < _cfg.numFlows,
                  "connection src_flow out of range");
    return _cm.open(id, tuple);
}

void
DaggerNic::closeConnection(proto::ConnId id)
{
    _cm.close(id);
}

void
DaggerNic::setObjectLevelKey(std::size_t key_offset, std::size_t key_len)
{
    _objLb = std::make_unique<ObjectLevelLb>(key_offset, key_len);
}

void
DaggerNic::setProtocol(std::unique_ptr<ProtocolUnit> protocol)
{
    dagger_assert(protocol, "null protocol unit");
    _protocol = std::move(protocol);
    _protocol->attach(*this);
}

void
DaggerNic::protocolEgress(net::Packet pkt)
{
    _net.send(std::move(pkt));
}

// ------------------------- RX path (host -> net) -------------------------

void
DaggerNic::maybeFetch(unsigned flow)
{
    FlowState &fs = _flows[flow];
    if (!fs.tx)
        return;
    const unsigned B = effectiveBatch();
    for (;;) {
        const std::size_t avail = fs.tx->pendingFrames();
        if (avail == 0)
            return;
        if (fs.outstandingFetches >= kMaxFlowFetches)
            return; // completion will re-trigger
        if (_soft.autoBatch) {
            // Pull whatever is ready, up to the hardware burst cap.
            issueFetch(flow, std::min(avail, kHwMaxBatch));
            continue;
        }
        if (avail >= B) {
            issueFetch(flow, B);
            continue;
        }
        // Partial batch: wait for more entries or flush on timeout.
        armFetchTimeout(flow);
        return;
    }
}

void
DaggerNic::armFetchTimeout(unsigned flow)
{
    FlowState &fs = _flows[flow];
    if (fs.fetchTimeoutArmed)
        return;
    fs.fetchTimeoutArmed = true;
    _eq.schedule(_soft.batchTimeout,
                 [this, flow] {
                     FlowState &f = _flows[flow];
                     f.fetchTimeoutArmed = false;
                     const std::size_t avail = f.tx->pendingFrames();
                     if (avail > 0 && avail < effectiveBatch() &&
                         f.outstandingFetches < kMaxFlowFetches) {
                         _monitor.timeoutFlushes.inc();
                         issueFetch(flow, avail);
                     }
                     maybeFetch(flow);
                 },
                 sim::Priority::Hardware);
}

void
DaggerNic::issueFetch(unsigned flow, std::size_t frames)
{
    FlowState &fs = _flows[flow];
    auto claimed = fs.tx->popFrames(frames);
    dagger_assert(claimed.size() == frames, "ring under-delivered");
    ++fs.outstandingFetches;
    // The RX FSM pipelines asynchronous reads but maybeFetch() stops
    // issuing at the per-flow credit limit; exceeding it means a
    // completion was lost or double-counted.
    DAGGER_INVARIANT(fs.outstandingFetches <= kMaxFlowFetches,
                     "flow ", flow, " exceeded its fetch credit window: ",
                     fs.outstandingFetches, " > ", kMaxFlowFetches);
    _fetchesInWindow += frames; // request rate, not transaction rate
    _monitor.framesFetched.inc(frames);
    _monitor.fetchBatch.record(frames);
    pollModeTick();
    _port.fetch(static_cast<unsigned>(frames),
                [this, flow, claimed = std::move(claimed)]() mutable {
                    onFetched(flow, std::move(claimed));
                });
}

void
DaggerNic::onFetched(unsigned flow, std::vector<proto::Frame> frames)
{
    FlowState &fs = _flows[flow];
    dagger_assert(fs.outstandingFetches > 0, "fetch completion underflow");
    --fs.outstandingFetches;

    // Release ring entries once the bookkeeping write lands.
    const std::size_t n = frames.size();
    _port.bookkeep([tx = fs.tx, n] { tx->release(n); });

    // Serializer pipeline, then per-message egress.
    _eq.schedule(pipelineDelay(),
                 [this, flow, frames = std::move(frames)]() mutable {
                     FlowState &f = _flows[flow];
                     for (auto &frame : frames) {
                         const auto need = f.partial.empty()
                             ? frame.header.frameCount()
                             : f.partial.front().header.frameCount();
                         // Room for the whole message up front: the
                         // group leaves as the packet's frame vector.
                         if (f.partial.capacity() < need)
                             f.partial = proto::takeBurst(need);
                         f.partial.push_back(std::move(frame));
                         if (f.partial.size() < need)
                             continue;
                         if (proto::RpcMessage::framesConsistent(
                                 f.partial)) {
                             // The fetched frames came straight from
                             // toFrames() in host memory and are
                             // already in wire form; forward them as
                             // the packet instead of re-framing (the
                             // NIC batches on headers, it does not
                             // audit host bytes).
                             egressFrames(std::move(f.partial));
                         } else {
                             _monitor.malformed.inc();
                         }
                         f.partial.clear();
                     }
                     proto::recycleBurst(std::move(frames));
                     maybeFetch(flow);
                 },
                 sim::Priority::Hardware);
}

void
DaggerNic::egressFrames(std::vector<proto::Frame> frames)
{
    const proto::ConnId conn = frames.front().header.connId;
    sim::Tick penalty = 0;
    auto tuple = _cm.lookup(conn, CmReader::OutgoingFlow, penalty);
    if (!tuple) {
        _monitor.dropsNoConnection.inc();
        return;
    }
    // Transport state for the connection lives in the HCC (§4.1);
    // a cold line costs one coherent fill from host memory.
    penalty += _hcc.access(conn);
    auto send = [this, dst = tuple->destAddr,
                 frames = std::move(frames)]() mutable {
        net::Packet pkt;
        pkt.dst = dst;
        pkt.frames = std::move(frames);
        _monitor.rpcsOut.inc();
        _monitor.bytesOut.inc(pkt.wireBytes());
        if (_protocol->onEgress(pkt))
            _net.send(std::move(pkt));
    };
    // Penalties stall the (in-order) egress pipeline: a later message
    // must not overtake an earlier one that is waiting on a state
    // fill, or per-flow FIFO order would break on the wire.
    const sim::Tick ready = std::max(_eq.now() + penalty, _egressFreeAt);
    _egressFreeAt = ready;
    if (ready == _eq.now())
        send();
    else
        _eq.scheduleAt(ready, std::move(send), sim::Priority::Hardware);
}

// ------------------------- TX path (net -> host) -------------------------

void
DaggerNic::onNetReceive(net::Packet pkt)
{
    if (!_protocol->onIngress(pkt))
        return;
    _eq.schedule(pipelineDelay(),
                 [this, pkt = std::move(pkt)]() mutable {
                     steerMessage(std::move(pkt));
                 },
                 sim::Priority::Hardware);
}

void
DaggerNic::steerMessage(net::Packet pkt)
{
    // Steering routes on the header alone: check consistency, not
    // checksums — integrity is gated at the transport's pre-ACK check
    // and at receive-side reassembly, and reassembling here would add
    // a handle pass per packet just to read connId and type.
    if (!proto::RpcMessage::framesConsistent(pkt.frames)) {
        _monitor.malformed.inc();
        return;
    }
    const proto::FrameHeader &h0 = pkt.frames.front().header;
    sim::Tick penalty = 0;
    auto tuple = _cm.lookup(h0.connId, CmReader::IncomingFlow, penalty);
    if (!tuple) {
        _monitor.dropsNoConnection.inc();
        return;
    }
    penalty += _hcc.access(h0.connId);
    unsigned flow;
    if (h0.type == proto::MsgType::Response) {
        flow = tuple->srcFlow % _cfg.numFlows;
    } else if (tuple->loadBalancer == LbScheme::ObjectLevel) {
        // The object-level balancer hashes key bytes out of the
        // payload, so this steering mode (alone) reassembles.
        proto::RpcMessage msg;
        if (!proto::RpcMessage::fromFrames(pkt.frames, msg)) {
            _monitor.malformed.inc();
            return;
        }
        flow = pickFlow(msg, *tuple);
    } else {
        const proto::RpcMessage hdr(h0.connId, h0.rpcId, h0.fnId, h0.type,
                                    proto::PayloadBuf());
        flow = pickFlow(hdr, *tuple);
    }
    DAGGER_DCHECK(flow < _flows.size(),
                  "load balancer steered to nonexistent flow ", flow);
    FlowState &fs = _flows[flow];
    if (!fs.rx) {
        _monitor.dropsNoConnection.inc();
        return;
    }
    if (fs.ingress.size() + pkt.frames.size() > kIngressStallFrames) {
        _monitor.dropsNoSlot.inc();
        return;
    }
    _monitor.rpcsIn.inc();
    _monitor.bytesIn.inc(pkt.wireBytes());
    if (fs.ingress.empty() && _reqBuffer.freeSlots() >= pkt.frames.size()) {
        // Common case: the request table has room, so frames go
        // straight to their slots without staging in the stall queue.
        for (auto &frame : pkt.frames)
            _reqBuffer.push(flow, std::move(frame));
    } else {
        for (auto &frame : pkt.frames)
            fs.ingress.push_back(std::move(frame));
        drainIngress(flow);
    }
    proto::recycleBurst(std::move(pkt.frames));
    if (penalty == 0) {
        maybePost(flow);
    } else {
        auto post = [this, flow] { maybePost(flow); };
        // This fires once per steered RPC under CM-penalty pressure;
        // it must never fall off EventClosure's allocation-free path.
        static_assert(sim::EventClosure::fitsInline<decltype(post)>());
        _eq.schedule(penalty, std::move(post), sim::Priority::Hardware);
    }
}

unsigned
DaggerNic::pickFlow(const proto::RpcMessage &msg, const ConnTuple &tuple)
{
    LoadBalancer *lb = nullptr;
    switch (tuple.loadBalancer) {
      case LbScheme::RoundRobin:
        lb = _rrLb.get();
        break;
      case LbScheme::Static:
        lb = _staticLb.get();
        break;
      case LbScheme::ObjectLevel:
        lb = _objLb.get();
        break;
    }
    dagger_assert(lb, "no load balancer instance");
    return lb->pick(msg, tuple, activeFlows());
}

void
DaggerNic::maybePost(unsigned flow)
{
    FlowState &fs = _flows[flow];
    if (!fs.rx)
        return;
    const unsigned B = effectiveBatch();
    for (;;) {
        const std::size_t depth = _reqBuffer.flowDepth(flow);
        if (depth == 0)
            return;
        if (_soft.autoBatch) {
            issuePost(flow, std::min(depth, kHwMaxBatch));
            continue;
        }
        if (depth >= B) {
            issuePost(flow, B);
            continue;
        }
        armPostTimeout(flow);
        return;
    }
}

void
DaggerNic::armPostTimeout(unsigned flow)
{
    FlowState &fs = _flows[flow];
    if (fs.postTimeoutArmed)
        return;
    fs.postTimeoutArmed = true;
    _eq.schedule(_soft.batchTimeout,
                 [this, flow] {
                     FlowState &f = _flows[flow];
                     f.postTimeoutArmed = false;
                     const std::size_t depth = _reqBuffer.flowDepth(flow);
                     if (depth > 0 && depth < effectiveBatch()) {
                         _monitor.timeoutFlushes.inc();
                         issuePost(flow, depth);
                     }
                     maybePost(flow);
                 },
                 sim::Priority::Hardware);
}

void
DaggerNic::drainIngress(unsigned flow)
{
    FlowState &fs = _flows[flow];
    while (!fs.ingress.empty() && _reqBuffer.freeSlots() > 0) {
        _reqBuffer.push(flow, std::move(fs.ingress.front()));
        fs.ingress.pop_front();
    }
}

void
DaggerNic::issuePost(unsigned flow, std::size_t frames)
{
    FlowState &fs = _flows[flow];
    auto batch = _reqBuffer.pop(flow, frames);
    dagger_assert(batch.size() == frames, "request buffer under-delivered");
    // Popping returned slots to the free FIFO; stalled ingress frames
    // claim them immediately so large messages stream through the
    // table in batch-sized waves.
    drainIngress(flow);
    _monitor.framesPosted.inc(frames);
    _monitor.postBatch.record(frames);
    _port.post(static_cast<unsigned>(frames),
               [rx = fs.rx, batch = std::move(batch)]() mutable {
                   rx->deliver(std::move(batch));
               });
}

// ------------------------- poll-mode management -------------------------

void
DaggerNic::pollModeTick()
{
    if (_cfg.iface != ic::IfaceKind::Upi)
        return;
    static_assert(kPollWindow > 0);
    // Lazily manage: this is called on every fetch; once per window we
    // evaluate the observed fetch rate and pick the polling mode.
    const sim::Tick now = _eq.now();
    if (now < _lastPollEval + kPollWindow)
        return;
    const double window_us = sim::ticksToUs(now - _lastPollEval);
    const double mrps = window_us > 0
        ? static_cast<double>(_fetchesInWindow) / window_us
        : 0.0;
    _port.setPollMode(mrps >= _soft.llcPollThresholdMrps
                          ? ic::PollMode::Llc
                          : ic::PollMode::LocalCache);
    _fetchesInWindow = 0;
    _lastPollEval = now;
}

} // namespace dagger::nic
