#include "net/fault_injector.hh"

#include "sim/logging.hh"

namespace dagger::net {

void
FaultInjector::install(SwitchPort &port)
{
    if (_ports.find(&port) == _ports.end()) {
        // The first port keeps the base seed — a single-port install
        // sees the classic stream.  Further ports get their own mixed
        // stream, independent of the other ports' traffic: the port's
        // node id spread over the seed by the splitmix64 finalizer.
        const std::uint64_t seed = _ports.empty()
            ? _spec.seed
            : sim::mix64(_spec.seed +
                         (1 + port.node()) * 0x9e3779b97f4a7c15ull);
        _ports.emplace(&port, PortState(seed));
    }
    port.setFaultInjector(this);
}

void
FaultInjector::registerMetrics(sim::MetricScope scope)
{
    const auto gauge = [&](const char *name,
                           std::uint64_t PortState::*field) {
        scope.intGauge(name, [this, field] { return sum(field); });
    };
    gauge("seen", &PortState::seen);
    gauge("delivered", &PortState::delivered);
    gauge("dropped", &PortState::dropped);
    gauge("duplicated", &PortState::duplicated);
    gauge("reordered", &PortState::reordered);
    gauge("corrupted", &PortState::corrupted);
    gauge("flap_dropped", &PortState::flapDropped);
}

std::uint64_t
FaultInjector::sum(std::uint64_t PortState::*field) const
{
    std::uint64_t total = 0;
    for (const auto &[port, st] : _ports)
        total += st.*field;
    return total;
}

bool
FaultInjector::inFlap(sim::Tick now) const
{
    for (const FaultSpec::FlapWindow &w : _spec.flaps)
        if (now >= w.start && now < w.end)
            return true;
    return false;
}

void
FaultInjector::corruptPayload(PortState &st, Packet &pkt)
{
    if (pkt.frames.empty())
        return;
    // Prefer a frame that actually carries message bytes, so the
    // per-frame checksum can catch the flip; an all-header packet has
    // its checksum byte flipped instead.
    std::vector<std::size_t> live;
    live.reserve(pkt.frames.size());
    for (std::size_t i = 0; i < pkt.frames.size(); ++i)
        if (pkt.frames[i].liveBytes() > 0)
            live.push_back(i);
    if (live.empty()) {
        pkt.frames[st.rng.range(pkt.frames.size())].header.checksum ^=
            0xff;
        return;
    }
    // Copy-on-write: only this frame's view is repointed at the
    // damaged bytes, so the sender's retransmission copy and any
    // in-flight duplicates keep referencing the intact buffer.
    proto::Frame &f = pkt.frames[live[st.rng.range(live.size())]];
    f.corruptPayloadByte(st.rng.range(f.liveBytes()));
}

void
FaultInjector::schedule(SwitchPort &port, PortState &st, Packet pkt,
                        sim::Tick delay)
{
    if (delay == 0) {
        // Immediate path: hand over synchronously, exactly like an
        // injector-free port, so a zeroed FaultSpec is transparent.
        ++st.delivered;
        port.receiverDeliver(std::move(pkt));
        return;
    }
    const auto slot = _delayed.park(std::move(pkt));
    _eq.schedule(delay,
                 [this, port = &port, st = &st, slot] {
                     ++st->delivered;
                     port->receiverDeliver(_delayed.take(slot));
                 },
                 sim::Priority::Hardware);
}

void
FaultInjector::process(SwitchPort &port, Packet pkt)
{
    auto it = _ports.find(&port);
    dagger_assert(it != _ports.end(),
                  "packet on a port the injector was never installed on");
    PortState &st = it->second;
    ++st.seen;
    const std::uint64_t idx = ++st.index;

    if (_scriptDrops.count(idx) != 0) {
        ++st.dropped;
        return;
    }
    if (inFlap(_eq.now())) {
        ++st.flapDropped;
        return;
    }
    if (_spec.dropP > 0.0 && st.rng.chance(_spec.dropP)) {
        ++st.dropped;
        return;
    }

    bool corrupt = _scriptCorrupts.count(idx) != 0;
    if (_spec.corruptP > 0.0 && st.rng.chance(_spec.corruptP))
        corrupt = true;
    if (corrupt) {
        corruptPayload(st, pkt);
        ++st.corrupted;
    }

    if (_spec.dupP > 0.0 && st.rng.chance(_spec.dupP)) {
        ++st.duplicated;
        schedule(port, st, pkt, _spec.dupDelay); // copy: second arrival
    }

    sim::Tick delay = 0;
    auto d = _scriptDelays.find(idx);
    if (d != _scriptDelays.end()) {
        delay = d->second;
        ++st.reordered;
    } else if (_spec.reorderP > 0.0 && st.rng.chance(_spec.reorderP)) {
        delay = _spec.reorderDelay;
        ++st.reordered;
    }
    schedule(port, st, std::move(pkt), delay);
}

} // namespace dagger::net
