#include "nic/dagger_nic.hh"

#include "nic/load_balancer.hh"
#include "sim/check.hh"
#include "sim/logging.hh"

namespace dagger::nic {

namespace {
/// Hardware maximum frames per CCI-P transaction (auto-batch burst cap).
constexpr std::size_t kHwMaxBatch = proto::kBurstFrames;
/// Per-flow ingress stall capacity, in frames ("drop or stall",
/// request_buffer.hh): frames wait in their flow's FIFO for a free
/// table slot, and only a backlog beyond several maximum-size messages
/// (1366 frames each) is dropped as drops_no_slot.
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
      _reqBuffer(kHwMaxBatch * cfg.numFlows, cfg.numFlows,
                 kIngressStallFrames),
      _flows(cfg.numFlows)
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
    tx->setNotify([this, flow] { drain(Dir::Fetch, flow); });
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
    _objKeyOffset = key_offset;
    _objKeyLen = key_len;
}

AckProtocol &
DaggerNic::enableAck(sim::Tick retransmit_timeout, unsigned max_retries,
                     std::size_t mtu_frames)
{
    dagger_assert(!_ack, "reliable transport already enabled");
    _ack = std::make_unique<AckProtocol>(_eq, _net, retransmit_timeout,
                                         max_retries, mtu_frames);
    return *_ack;
}

// --------------- CCI-P batching (fetches and posts alike) ---------------

std::size_t
DaggerNic::readyFrames(Dir dir, unsigned flow) const
{
    const FlowState &fs = _flows[flow];
    if (dir == Dir::Post)
        return fs.rx ? _reqBuffer.flowDepth(flow) : 0;
    // A flow out of fetch credits has nothing ready: its next
    // completion re-triggers the drain.
    return fs.tx && fs.outstandingFetches < kMaxFlowFetches
        ? fs.tx->pendingFrames()
        : 0;
}

void
DaggerNic::issue(Dir dir, unsigned flow, std::size_t frames)
{
    if (dir == Dir::Fetch)
        issueFetch(flow, frames);
    else
        issuePost(flow, frames);
}

void
DaggerNic::drain(Dir dir, unsigned flow)
{
    const unsigned B = effectiveBatch();
    for (;;) {
        const std::size_t ready = readyFrames(dir, flow);
        if (ready == 0)
            return;
        if (_soft.autoBatch) {
            // Move whatever is ready, up to the hardware burst cap.
            issue(dir, flow, std::min(ready, kHwMaxBatch));
            continue;
        }
        if (ready >= B) {
            issue(dir, flow, B);
            continue;
        }
        // Partial batch: wait for more frames or flush on timeout.
        armFlush(dir, flow);
        return;
    }
}

void
DaggerNic::armFlush(Dir dir, unsigned flow)
{
    bool &armed = _flows[flow].flushArmed[static_cast<unsigned>(dir)];
    if (armed)
        return;
    armed = true;
    _eq.schedule(_soft.batchTimeout,
                 [this, dir, flow] {
                     _flows[flow].flushArmed[static_cast<unsigned>(dir)] =
                         false;
                     const std::size_t ready = readyFrames(dir, flow);
                     if (ready > 0 && ready < effectiveBatch()) {
                         _monitor.timeoutFlushes.inc();
                         issue(dir, flow, ready);
                     }
                     drain(dir, flow);
                 },
                 sim::Priority::Hardware);
}

// ------------------------- RX path (host -> net) -------------------------

void
DaggerNic::issueFetch(unsigned flow, std::size_t frames)
{
    FlowState &fs = _flows[flow];
    const BatchSlot slot = _batches.park(fs.tx->popFrames(frames));
    dagger_assert(_batches.at(slot).size() == frames, "ring under-delivered");
    ++fs.outstandingFetches;
    // The RX FSM pipelines asynchronous reads but drain() stops
    // issuing at the per-flow credit limit; exceeding it means a
    // completion was lost or double-counted.
    DAGGER_INVARIANT(fs.outstandingFetches <= kMaxFlowFetches,
                     "flow ", flow, " exceeded its fetch credit window: ",
                     fs.outstandingFetches, " > ", kMaxFlowFetches);
    _fetchesInWindow += frames; // request rate, not transaction rate
    _monitor.framesFetched.inc(frames);
    _monitor.fetchBatch.record(frames);
    pollModeTick();
    auto fetched = [this, flow, slot] { onFetched(flow, slot); };
    static_assert(sim::EventClosure::relocatesByMemcpy<decltype(fetched)>());
    _port.fetch(static_cast<unsigned>(frames), std::move(fetched));
}

void
DaggerNic::onFetched(unsigned flow, BatchSlot slot)
{
    FlowState &fs = _flows[flow];
    dagger_assert(fs.outstandingFetches > 0, "fetch completion underflow");
    --fs.outstandingFetches;

    // Release ring entries once the bookkeeping write lands.
    const std::size_t n = _batches.at(slot).size();
    auto release = [tx = fs.tx, n] { tx->release(n); };
    static_assert(sim::EventClosure::relocatesByMemcpy<decltype(release)>());
    _port.bookkeep(std::move(release));

    // Serializer pipeline, then per-message egress.
    auto serialize = [this, flow, slot] { serializeBatch(flow, slot); };
    static_assert(sim::EventClosure::relocatesByMemcpy<decltype(serialize)>());
    _eq.schedule(kPipelineDelay, std::move(serialize),
                 sim::Priority::Hardware);
}

void
DaggerNic::serializeBatch(unsigned flow, BatchSlot slot)
{
    std::vector<proto::Frame> frames = _batches.take(slot);
    FlowState &f = _flows[flow];
    for (auto &frame : frames) {
        const auto need = f.partial.empty()
            ? frame.header.frameCount()
            : f.partial.front().header.frameCount();
        // Room for the whole message up front: the group leaves as the
        // packet's frame vector.
        if (f.partial.capacity() < need)
            f.partial = proto::takeBurst(need);
        f.partial.push_back(std::move(frame));
        if (f.partial.size() < need)
            continue;
        if (proto::RpcMessage::framesConsistent(f.partial)) {
            // The fetched frames came straight from toFrames() in host
            // memory and are already in wire form; forward them as the
            // packet instead of re-framing (the NIC batches on headers,
            // it does not audit host bytes).
            egressFrames(std::move(f.partial));
        } else {
            _monitor.malformed.inc();
        }
        f.partial.clear();
    }
    proto::recycleBurst(std::move(frames));
    drain(Dir::Fetch, flow);
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
                 slot = _batches.park(std::move(frames))] {
        net::Packet pkt;
        pkt.dst = dst;
        pkt.frames = _batches.take(slot);
        _monitor.rpcsOut.inc();
        _monitor.bytesOut.inc(pkt.wireBytes());
        if (!_ack || _ack->onEgress(pkt))
            _net.send(std::move(pkt));
    };
    static_assert(sim::EventClosure::relocatesByMemcpy<decltype(send)>());
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
    if (_ack && !_ack->onIngress(pkt))
        return;
    auto steer = [this, slot = _batches.park(std::move(pkt.frames))] {
        steerMessage(_batches.take(slot));
    };
    static_assert(sim::EventClosure::relocatesByMemcpy<decltype(steer)>());
    _eq.schedule(kPipelineDelay, std::move(steer), sim::Priority::Hardware);
}

void
DaggerNic::steerMessage(std::vector<proto::Frame> frames)
{
    // Steering routes on the header alone: check consistency, not
    // checksums — integrity is gated at the transport's pre-ACK check
    // and at receive-side reassembly, and reassembling here would add
    // a handle pass per packet just to read connId and type.
    if (!proto::RpcMessage::framesConsistent(frames)) {
        _monitor.malformed.inc();
        return;
    }
    const proto::FrameHeader &h0 = frames.front().header;
    sim::Tick penalty = 0;
    auto tuple = _cm.lookup(h0.connId, CmReader::IncomingFlow, penalty);
    if (!tuple) {
        _monitor.dropsNoConnection.inc();
        return;
    }
    penalty += _hcc.access(h0.connId);
    unsigned flow;
    if (h0.type == proto::MsgType::Response) {
        flow = tuple->srcFlow;
    } else if (const auto picked = pickFlow(frames, *tuple)) {
        flow = *picked;
    } else {
        _monitor.malformed.inc();
        return;
    }
    DAGGER_DCHECK(flow < _flows.size(),
                  "load balancer steered to nonexistent flow ", flow);
    if (!_flows[flow].rx) {
        _monitor.dropsNoConnection.inc();
        return;
    }
    const std::size_t wire_bytes = frames.size() * proto::kCacheLineBytes;
    if (!_reqBuffer.push(flow, std::move(frames))) {
        _monitor.dropsNoSlot.inc();
        return;
    }
    _monitor.rpcsIn.inc();
    _monitor.bytesIn.inc(wire_bytes);
    if (penalty == 0) {
        drain(Dir::Post, flow);
    } else {
        auto post = [this, flow] { drain(Dir::Post, flow); };
        _eq.schedule(penalty, std::move(post), sim::Priority::Hardware);
    }
}

std::optional<unsigned>
DaggerNic::pickFlow(const std::vector<proto::Frame> &frames,
                    const ConnTuple &tuple)
{
    const unsigned flows = _cfg.numFlows;
    switch (tuple.loadBalancer) {
      case LbScheme::RoundRobin: {
        // Dynamic uniform steering.
        const unsigned f = _rrNext;
        _rrNext = (_rrNext + 1) % flows;
        return f;
      }
      case LbScheme::Static:
        return tuple.srcFlow;
      case LbScheme::ObjectLevel:
        break;
    }
    // Object-Level core affinity hashes key bytes out of the payload,
    // so this scheme (alone) reassembles.
    proto::RpcMessage msg;
    if (!proto::RpcMessage::fromFrames(frames, msg))
        return std::nullopt;
    const proto::PayloadBuf &payload = msg.payload();
    if (_objKeyOffset + _objKeyLen > payload.size()) {
        // Request without a key at the configured position (e.g. a
        // control RPC): fall back to flow 0 deterministically.
        return 0u;
    }
    return static_cast<unsigned>(
        objectKeyHash(payload.data() + _objKeyOffset, _objKeyLen) % flows);
}

void
DaggerNic::issuePost(unsigned flow, std::size_t frames)
{
    const BatchSlot slot = _batches.park(_reqBuffer.pop(flow, frames));
    dagger_assert(_batches.at(slot).size() == frames,
                  "request buffer under-delivered");
    _monitor.framesPosted.inc(frames);
    _monitor.postBatch.record(frames);
    auto posted = [rx = _flows[flow].rx, this, slot] {
        rx->deliver(_batches.take(slot));
    };
    static_assert(sim::EventClosure::relocatesByMemcpy<decltype(posted)>());
    _port.post(static_cast<unsigned>(frames), std::move(posted));
}

// ------------------------- poll-mode management -------------------------

void
DaggerNic::pollModeTick()
{
    // Every interface runs the switch; off UPI both poll-mode terms of
    // the fabric's profile are zero, so the mode costs nothing there.
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
