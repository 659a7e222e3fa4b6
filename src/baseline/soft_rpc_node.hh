/**
 * @file
 * A software-RPC endpoint running on simulated cores.
 *
 * Serves two purposes:
 *  - the comparison harness for Table 3 (echo RPCs over each modeled
 *    stack), and
 *  - the substrate for the §3 characterization (Figs. 3-5): the
 *    Social Network tiers run over this node with kernel-TCP costs,
 *    and the per-request latency is decomposed into transport
 *    processing, RPC processing, and application time exactly like
 *    the paper's profiler (queueing for the network thread counts as
 *    transport; queueing for the app thread counts as RPC).
 *
 * The node supports deferred responses so mid-tier services can fan
 * out nested calls before answering.
 */

#ifndef DAGGER_BASELINE_SOFT_RPC_NODE_HH
#define DAGGER_BASELINE_SOFT_RPC_NODE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "baseline/soft_stack.hh"
#include "proto/payload.hh"
#include "rpc/cpu.hh"
#include "sim/event_queue.hh"
#include "sim/slot_table.hh"
#include "sim/stats.hh"

namespace dagger::baseline {

/**
 * Baseline request/response payload.  Shares the refcounted flat
 * buffer used by the Dagger path, so baseline-vs-Dagger comparisons
 * (Table 3) move handles over the same allocation model and the copy
 * counters in proto::payloadStats() cover both stacks.
 */
using Payload = proto::PayloadBuf;

/** Per-request component times recorded at the serving node. */
struct ServeBreakdown
{
    sim::Histogram transport; ///< RX transport (+queue)
    sim::Histogram rpc;       ///< RPC layers (+queue)
    sim::Histogram app;       ///< handler incl. nested calls
    sim::Histogram total;     ///< arrival -> response sent
};

/** One endpoint (think: one microservice process). */
class SoftRpcNode
{
  public:
    /** Send the response; @p app_cost is the handler's CPU time. */
    using Responder = std::function<void(Payload response,
                                         sim::Tick app_cost)>;

    /** Request handler; must eventually invoke the responder once. */
    using SHandler = std::function<void(const Payload &request,
                                        Responder respond)>;

    /** Caller callback: the response payload and the measured RTT. */
    using Callback = std::function<void(const Payload &, sim::Tick rtt)>;

    /**
     * @param eq    event queue
     * @param p     stack cost model
     * @param app   hardware thread running application + RPC layers
     * @param net   hardware thread running transport processing
     *              (interrupts); nullptr = colocated with @p app,
     *              which is the shaded-bars configuration of Fig. 5
     */
    SoftRpcNode(sim::EventQueue &eq, const SoftStackParams &p,
                rpc::HwThread &app, rpc::HwThread *net = nullptr);

    /** Install the request handler. */
    void setHandler(SHandler handler) { _handler = std::move(handler); }

    /**
     * Multiplier applied to every CPU cost at this node while network
     * processing shares the application thread.  A FIFO queueing
     * model alone cannot see why colocation hurts (the same work just
     * queues in one place instead of two); the real costs are
     * interrupt context switches and LLC/L1 pollution, which §3.3
 	 * measures and which this factor models.  Ignored when a
     * dedicated net thread is configured.
     */
    void setColocationSlowdown(double factor) { _colocSlowdown = factor; }

    /** True when transport processing shares the app thread. */
    bool colocated() const { return _net == nullptr || _net == &_app; }

    /**
     * Issue an RPC to @p dest.  @p cb runs on this node's app thread
     * with the response payload and the measured RTT.
     */
    void call(SoftRpcNode &dest, Payload request, Callback cb);

    /** Serving-side breakdown of everything this node handled. */
    const ServeBreakdown &served() const { return _served; }
    ServeBreakdown &served() { return _served; }

    std::uint64_t handled() const { return _handled; }
    const SoftStackParams &params() const { return _params; }

  private:
    /** The thread that runs the transport: the net thread if the node
     *  has one, else the app thread. */
    rpc::HwThread &netThread() { return _net ? *_net : _app; }

    /**
     * One in-flight call, parked at the caller from call() until the
     * response reaches the caller's app thread.  Every event of the
     * call captures only node pointers and the slot.
     */
    struct Call
    {
        SoftRpcNode *server = nullptr;
        Payload payload; ///< the request, then the response
        Callback cb;
        sim::Tick t0 = 0; ///< issued at the caller
        sim::Tick t2 = 0; ///< arrived at the server
        sim::Tick t3 = 0; ///< transport receive done
        sim::Tick t4 = 0; ///< RPC receive done, handler starts
        sim::Tick t5 = 0; ///< handler responded
        sim::Tick appCost = 0;
    };
    using Slot = sim::SlotTable<Call>::Slot;

    /** Server side: the request of @p caller's call @p slot arrived. */
    void receive(SoftRpcNode &caller, Slot slot);
    /** Server side: the handler answered @p caller's call @p slot. */
    void respond(SoftRpcNode &caller, Slot slot, Payload response,
                 sim::Tick app_cost);
    /** Caller side: the response of call @p slot arrived. */
    void receiveResponse(Slot slot);

    /** Cost scaled by the colocation slowdown when applicable. */
    sim::Tick scaled(sim::Tick cost) const;

    sim::EventQueue &_eq;
    SoftStackParams _params;
    rpc::HwThread &_app;
    rpc::HwThread *_net;
    double _colocSlowdown = 1.0;
    SHandler _handler;
    ServeBreakdown _served;
    std::uint64_t _handled = 0;
    sim::SlotTable<Call> _calls;
};

} // namespace dagger::baseline

#endif // DAGGER_BASELINE_SOFT_RPC_NODE_HH
