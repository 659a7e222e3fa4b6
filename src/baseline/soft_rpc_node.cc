#include "baseline/soft_rpc_node.hh"

#include "sim/logging.hh"

namespace dagger::baseline {

SoftRpcNode::SoftRpcNode(sim::EventQueue &eq, const SoftStackParams &p,
                         rpc::HwThread &app, rpc::HwThread *net)
    : _eq(eq), _params(p), _app(app), _net(net)
{
}

sim::Tick
SoftRpcNode::scaled(sim::Tick cost) const
{
    if (!colocated() || _colocSlowdown <= 1.0)
        return cost;
    return static_cast<sim::Tick>(static_cast<double>(cost) *
                                  _colocSlowdown);
}

void
SoftRpcNode::call(SoftRpcNode &dest, Payload request, Callback cb)
{
    const Slot slot = _calls.park(
        Call{&dest, std::move(request), std::move(cb), _eq.now()});

    // Sender-side RPC + transport layers on the app thread, then wire.
    _app.execute(scaled(_params.rpcSendCpu + _params.transportSendCpu),
                 [this, slot] {
                     _eq.schedule(
                         _params.wireOneWay,
                         [this, slot] {
                             _calls.at(slot).server->receive(*this, slot);
                         },
                         sim::Priority::Hardware);
                 });
}

void
SoftRpcNode::receive(SoftRpcNode &caller, Slot slot)
{
    caller._calls.at(slot).t2 = _eq.now();
    netThread().execute(
        scaled(_params.transportRecvCpu), [this, &caller, slot] {
            caller._calls.at(slot).t3 = _eq.now();
            _app.execute(scaled(_params.rpcRecvCpu), [this, &caller, slot] {
                Call &c = caller._calls.at(slot);
                c.t4 = _eq.now();
                dagger_assert(_handler, "SoftRpcNode without handler");
                ++_handled;
                // The handler may respond, or call out, before it
                // returns: both can touch the slot table, so the
                // request leaves it first.  The responder captures
                // 16 B, which std::function holds without allocating.
                const Payload request = std::move(c.payload);
                _handler(request, [caller = &caller, slot](
                                      Payload response, sim::Tick app_cost) {
                    caller->_calls.at(slot).server->respond(
                        *caller, slot, std::move(response), app_cost);
                });
            });
        });
}

void
SoftRpcNode::respond(SoftRpcNode &caller, Slot slot, Payload response,
                     sim::Tick app_cost)
{
    Call &c = caller._calls.at(slot);
    c.payload = std::move(response);
    c.t5 = _eq.now();
    c.appCost = app_cost;
    _app.execute(
        scaled(app_cost + _params.rpcSendCpu + _params.transportSendCpu),
        [this, &caller, slot] {
            const Call &c = caller._calls.at(slot);
            const sim::Tick t6 = _eq.now();
            _served.transport.record(c.t3 - c.t2);
            _served.rpc.record((c.t4 - c.t3) + (t6 - c.t5 - c.appCost));
            _served.app.record((c.t5 - c.t4) + c.appCost);
            _served.total.record(t6 - c.t2);
            _eq.schedule(
                _params.wireOneWay,
                [&caller, slot] { caller.receiveResponse(slot); },
                sim::Priority::Hardware);
        });
}

void
SoftRpcNode::receiveResponse(Slot slot)
{
    netThread().execute(scaled(_params.transportRecvCpu), [this, slot] {
        _app.execute(scaled(_params.rpcRecvCpu), [this, slot] {
            // Free the slot first: the callback may issue a new call.
            const Call c = _calls.take(slot);
            if (c.cb)
                c.cb(c.payload, _eq.now() - c.t0);
        });
    });
}

} // namespace dagger::baseline
