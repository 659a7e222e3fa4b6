#include "net/tor_switch.hh"

#include "net/fault_injector.hh"
#include "sim/logging.hh"

namespace dagger::net {

TorSwitch::TorSwitch(EventQueue &eq, Tick hop_delay, Tick byte_time,
                     std::size_t queue_cap)
    : _eq(eq), _hopDelay(hop_delay), _byteTime(byte_time),
      _queueCap(queue_cap)
{}

SwitchPort::SwitchPort(TorSwitch &sw, NodeId node)
    : _switch(sw), _node(node)
{}

SwitchPort &
TorSwitch::attach(NodeId node)
{
    if (node >= _ports.size())
        _ports.resize(node + 1);
    if (!_ports[node])
        _ports[node] =
            std::unique_ptr<SwitchPort>(new SwitchPort(*this, node));
    return *_ports[node];
}

void
SwitchPort::setFaultInjector(FaultInjector *fi)
{
    _fault = fi;
}

void
SwitchPort::send(Packet pkt)
{
    pkt.src = _node;
    // Ingress: the packet traverses the switch fabric after hop delay,
    // then serializes out of the destination's egress port.
    _switch._eq.schedule(_switch._hopDelay,
                         [sw = &_switch, pkt = std::move(pkt)]() mutable {
                             sw->route(std::move(pkt));
                         },
                         sim::Priority::Hardware);
}

void
TorSwitch::route(Packet pkt)
{
    if (pkt.dst >= _ports.size() || !_ports[pkt.dst]) {
        ++_dropped;
        dagger_warn("ToR: no port for node ", pkt.dst, "; packet dropped");
        return;
    }
    enqueueEgress(*_ports[pkt.dst], std::move(pkt));
}

void
TorSwitch::enqueueEgress(SwitchPort &port, Packet pkt)
{
    if (port._egressQueue.size() >= _queueCap) {
        ++_dropped;
        return;
    }
    port._egressQueue.push_back(std::move(pkt));
    if (!port._egressBusy)
        drainEgress(port);
}

void
TorSwitch::drainEgress(SwitchPort &port)
{
    if (port._egressQueue.empty()) {
        port._egressBusy = false;
        return;
    }
    port._egressBusy = true;
    port._inFlight = std::move(port._egressQueue.front());
    port._egressQueue.pop_front();
    const Tick ser = _byteTime * port._inFlight.wireBytes();
    ++_forwarded;
    _eq.schedule(ser, [this, &port] { egressDone(port); },
                 sim::Priority::Hardware);
}

void
TorSwitch::egressDone(SwitchPort &port)
{
    // Move the packet out first: drainEgress() below reuses the
    // _inFlight slot for the next queued packet.
    Packet pkt = std::move(port._inFlight);
    port.deliver(std::move(pkt));
    drainEgress(port);
}

void
SwitchPort::deliver(Packet pkt)
{
    if (_fault) {
        _fault->process(*this, std::move(pkt));
        return;
    }
    receiverDeliver(std::move(pkt));
}

void
SwitchPort::receiverDeliver(Packet pkt)
{
    if (_receiver)
        _receiver(std::move(pkt));
}

} // namespace dagger::net
