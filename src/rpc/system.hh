/**
 * @file
 * DaggerSystem: top-level wiring of a simulated deployment.
 *
 * One DaggerSystem owns the event queue, the CCI-P fabric (with its
 * round-robin arbiter), the ToR switch, and any number of nodes.  A
 * node is one "virtual but physical" NIC instance (Fig. 14) plus its
 * per-flow software rings — the unit a tenant / microservice tier
 * gets.  Connections are opened symmetrically on both endpoint NICs,
 * mirroring the paper's connection setup through the Connection
 * Manager.
 */

#ifndef DAGGER_RPC_SYSTEM_HH
#define DAGGER_RPC_SYSTEM_HH

#include <memory>
#include <vector>

#include "ic/cci_fabric.hh"
#include "net/tor_switch.hh"
#include "nic/dagger_nic.hh"
#include "rpc/cpu.hh"
#include "rpc/rings.hh"
#include "rpc/sw_cost.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"

namespace dagger::rpc {

class DaggerSystem;

/** One NIC instance plus its host-side rings. */
class DaggerNode
{
  public:
    nic::DaggerNic &nicDev() { return *_nic; }
    net::NodeId id() const { return _id; }

    /** The system's event queue. */
    sim::EventQueue &eq() { return *_eq; }

    FlowRings &flow(unsigned i);
    unsigned numFlows() const { return static_cast<unsigned>(_rings.size()); }
    DaggerSystem &system() { return *_system; }

  private:
    friend class DaggerSystem;
    DaggerNode() = default;

    DaggerSystem *_system = nullptr;
    net::NodeId _id = 0;
    sim::EventQueue *_eq = nullptr;
    std::vector<std::unique_ptr<FlowRings>> _rings;
    std::unique_ptr<nic::DaggerNic> _nic;
};

/**
 * System-wide client reliability counters, aggregated across every
 * RpcClient (clients come and go; these counters outlive them, so the
 * MetricRegistry can safely point at them).
 */
struct ReliabilityStats
{
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t completions = 0;
    std::uint64_t lateResponses = 0;
    /** Timer arms that the pre-fix issue-time arming would already
     *  have expired (send delayed past the timeout by CPU backlog). */
    std::uint64_t spuriousArms = 0;
    /** Resend attempts dropped on a full TX ring (re-attempted on a
     *  short timer instead of waiting out a full backoff). */
    std::uint64_t resendDrops = 0;
};

/** Full simulated deployment. */
class DaggerSystem
{
  public:
    /** @param iface CPU-NIC interface flavour for all nodes */
    explicit DaggerSystem(ic::IfaceKind iface = ic::IfaceKind::Upi,
                          ic::UpiCost upi = {}, ic::PcieCost pcie = {});

    /** Create a node (NIC instance + rings); returns a stable ref. */
    DaggerNode &addNode(nic::NicConfig cfg = {}, nic::SoftConfig soft = {});

    /**
     * Open a bidirectional connection between a client flow and a
     * server node.
     *
     * @param client      client node
     * @param client_flow flow on the client NIC owning the rings
     * @param server      server node
     * @param server_flow server flow recorded for static balancing
     * @param lb          load-balancing scheme applied server-side
     * @return the connection id registered on both NICs
     */
    proto::ConnId connect(DaggerNode &client, unsigned client_flow,
                          DaggerNode &server, unsigned server_flow = 0,
                          nic::LbScheme lb = nic::LbScheme::RoundRobin);

    /** Close a connection on both sides. */
    void disconnect(proto::ConnId id);

    /** The one event queue every component of the system runs on. */
    sim::EventQueue &eq() { return _eq; }
    ic::CciFabric &fabric() { return _fabric; }
    net::TorSwitch &tor() { return _tor; }

    sim::Tick now() const { return _eq.now(); }
    void runFor(sim::TickDelta window) { _eq.runFor(window); }
    void runUntilTick(sim::Tick when) { _eq.runUntil(when); }
    std::uint64_t eventsExecuted() const { return _eq.executed(); }

    /** Pool/scheduler stats (the sim.events.* gauges, plus
     *  heapClosures). */
    const sim::EventQueue::EngineStats &
    engineStats() const
    {
        return _eq.stats();
    }

    /**
     * The system-wide metric registry.  Every component registers its
     * statistics here at construction: "fabric.*", "tor.*",
     * "events_executed", then per node "node<i>.nic.*" and
     * "node<i>.flow<f>.*".  Reports are registry walks.
     */
    sim::MetricRegistry &metrics() { return _metrics; }
    const sim::MetricRegistry &metrics() const { return _metrics; }
    const SwCost &swCost() const { return _swCost; }
    SwCost &swCost() { return _swCost; }
    ReliabilityStats &reliability() { return _reliability; }
    DaggerNode &node(std::size_t i) { return *_nodes.at(i); }
    std::size_t numNodes() const { return _nodes.size(); }

    /** CPU cost a sender pays per request (interface + batching). */
    sim::Tick
    sendCpuCost(const DaggerNode &node) const
    {
        const auto &soft = node._nic->softConfig();
        const unsigned b = std::max(1u, soft.batchSize);
        return _fabric.hostTxCpuCost(b);
    }

  private:
    struct ConnRecord
    {
        net::NodeId client;
        net::NodeId server;
    };

    sim::MetricRegistry _metrics; ///< outlives everything registered in it
    ReliabilityStats _reliability;
    sim::EventQueue _eq;
    ic::CciFabric _fabric;
    net::TorSwitch _tor;
    SwCost _swCost;
    std::vector<std::unique_ptr<DaggerNode>> _nodes;
    std::vector<ConnRecord> _conns; // index = ConnId - 1
};

} // namespace dagger::rpc

#endif // DAGGER_RPC_SYSTEM_HH
