#include "rpc/system.hh"

#include "sim/logging.hh"

namespace dagger::rpc {

DaggerSystem::DaggerSystem(ic::IfaceKind iface)
    : _fabric(_eq, ic::profileFor(iface), 0), _tor(_eq)
{
    // Registration order here and in addNode() is the JSON export's
    // key order.
    sim::MetricScope root(_metrics, "");
    _fabric.registerMetrics(root.sub("fabric"));
    _tor.registerMetrics(root.sub("tor"));
    root.intGauge("events_executed", [this] { return eventsExecuted(); });
    // Engine internals (event pool + two-level scheduler, docs/PERF.md).
    sim::MetricScope events = root.sub("sim").sub("events");
    events.intGauge("pool_hits", [this] { return engineStats().poolHits; });
    events.intGauge("pool_misses",
                    [this] { return engineStats().poolMisses; });
    events.intGauge("pool_blocks",
                    [this] { return engineStats().poolBlocks; });
    events.intGauge("wheel_admits",
                    [this] { return engineStats().wheelAdmits; });
    events.intGauge("frame_admits",
                    [this] { return engineStats().frameAdmits; });
    events.intGauge("heap_admits",
                    [this] { return engineStats().heapAdmits; });
    events.intGauge("max_pending",
                    [this] { return engineStats().maxPending; });
    // Client retry/timeout behaviour, aggregated across all RpcClients.
    sim::MetricScope rel = root.sub("rpc").sub("reliability");
    rel.intGauge("retries", [this] { return _reliability.retries; });
    rel.intGauge("timeouts", [this] { return _reliability.timeouts; });
    rel.intGauge("completions", [this] { return _reliability.completions; });
    rel.intGauge("late_responses",
                 [this] { return _reliability.lateResponses; });
    rel.intGauge("spurious_arms",
                 [this] { return _reliability.spuriousArms; });
    rel.intGauge("resend_drops", [this] { return _reliability.resendDrops; });
    // Payload-path traffic accounting: the payload work done on this
    // system's thread since the system was built (a system runs on one
    // thread, and gauges are read on it).  They prove the zero-copy
    // invariant — bytes_copied stays O(payload) per RPC while
    // handle_passes grows with hop count.
    sim::MetricScope pay = root.sub("sim").sub("payload");
    pay.intGauge("bytes_copied",
                 [this] {
                     return proto::payloadStats().bytesCopied -
                         _payloadAtStart.bytesCopied;
                 });
    pay.intGauge("handle_passes",
                 [this] {
                     return proto::payloadStats().handlePasses -
                         _payloadAtStart.handlePasses;
                 });
}

FlowRings &
DaggerNode::flow(unsigned i)
{
    dagger_assert(i < _rings.size(), "bad flow ", i);
    return *_rings[i];
}

DaggerNode &
DaggerSystem::addNode(nic::NicConfig cfg, nic::SoftConfig soft)
{
    auto node = std::unique_ptr<DaggerNode>(new DaggerNode());
    node->_system = this;
    node->_id = static_cast<net::NodeId>(_nodes.size());

    node->_eq = &_eq;

    ic::CciPort &port = _fabric.addPort();
    net::SwitchPort &sw = _tor.attach(node->_id);
    node->_nic = std::make_unique<nic::DaggerNic>(_eq, cfg, soft, port, sw);

    node->_rings.reserve(cfg.numFlows);
    for (unsigned f = 0; f < cfg.numFlows; ++f) {
        node->_rings.push_back(std::make_unique<FlowRings>(
            cfg.txRingEntries, cfg.rxRingEntries));
        node->_nic->attachFlow(f, &node->_rings[f]->tx,
                               &node->_rings[f]->rx);
    }

    sim::MetricScope scope(_metrics,
                           "node" + std::to_string(node->_id));
    node->_nic->registerMetrics(scope.sub("nic"));
    for (unsigned f = 0; f < cfg.numFlows; ++f)
        node->_rings[f]->registerMetrics(
            scope.sub("flow" + std::to_string(f)));

    _nodes.push_back(std::move(node));
    return *_nodes.back();
}

proto::ConnId
DaggerSystem::connect(DaggerNode &client, unsigned client_flow,
                      DaggerNode &server, unsigned server_flow,
                      nic::LbScheme lb)
{
    dagger_assert(client_flow < client.numFlows(),
                  "client flow out of range");
    const auto id = static_cast<proto::ConnId>(_conns.size() + 1);

    nic::ConnTuple client_tuple;
    client_tuple.srcFlow = client_flow;
    client_tuple.destAddr = server.id();
    client_tuple.loadBalancer = lb;

    nic::ConnTuple server_tuple;
    server_tuple.srcFlow = server_flow;
    server_tuple.destAddr = client.id();
    server_tuple.loadBalancer = lb;

    if (!client.nicDev().openConnection(id, client_tuple))
        dagger_fatal("connection cache conflict on client NIC; enable "
                     "connCacheDramBacking or enlarge the cache");
    if (!server.nicDev().openConnection(id, server_tuple))
        dagger_fatal("connection cache conflict on server NIC; enable "
                     "connCacheDramBacking or enlarge the cache");

    _conns.push_back(ConnRecord{client.id(), server.id()});
    return id;
}

void
DaggerSystem::disconnect(proto::ConnId id)
{
    dagger_assert(id >= 1 && id <= _conns.size(), "unknown connection ", id);
    const ConnRecord &rec = _conns[id - 1];
    _nodes.at(rec.client)->nicDev().closeConnection(id);
    _nodes.at(rec.server)->nicDev().closeConnection(id);
}

} // namespace dagger::rpc
