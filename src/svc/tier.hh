/**
 * @file
 * Microservice-tier framework over the Dagger fabric (§5.7).
 *
 * A Tier is one microservice process: its own NIC instance (the
 * virtualized-NIC deployment of Fig. 14), one server flow with a
 * dispatch thread, and one client flow per downstream dependency.
 * A tier's threading model is whether it has a worker pool:
 *
 *  - Simple (no pool): handlers run in the dispatch thread, and a
 *    handler waiting on nested calls blocks the dispatch loop;
 *  - Optimized (useWorkerPool): handler compute runs on the workers
 *    and nested calls never block the dispatch loop.
 *
 * Handlers come in two shapes.  A leaf answer (serve) returns its
 * compute cost and response.  A deferred answer (serveDeferred)
 * charges its cost, runs nested calls, and answers later with reply().
 * Both record their cost in the tier's service histogram — the
 * "lightweight request tracing" that finds the bottleneck tier.
 */

#ifndef DAGGER_SVC_TIER_HH
#define DAGGER_SVC_TIER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rpc/client.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"
#include "sim/stats.hh"

namespace dagger::svc {

/** Threading models of §5.7 / Table 4. */
enum class ThreadingModel {
    Simple,    ///< handlers in dispatch threads, nested calls block
    Optimized, ///< worker threads, non-blocking dispatch
};

/** One microservice tier. */
class Tier
{
  public:
    /**
     * @param sys         the deployment
     * @param name        tier name (for metrics and reports)
     * @param downstreams number of downstream client flows to provision
     * @param cores       cores the tier owns: core 0 thread 0 runs the
     *                    dispatch loop, cores 1.. host worker threads
     * @param cfg         per-tier NIC hard config template (flows are
     *                    sized automatically: 1 server + downstreams)
     */
    Tier(rpc::DaggerSystem &sys, std::string name, unsigned downstreams,
         unsigned cores, nic::NicConfig cfg = {}, nic::SoftConfig soft = {});

    /** Connect the next free client flow to @p server_tier. */
    rpc::RpcClient &connectTo(Tier &server_tier,
                              nic::LbScheme lb = nic::LbScheme::RoundRobin);

    /**
     * Build the Optimized model's pool of @p workers threads from this
     * tier's own cores (cores 1..workers; requires cores > workers).
     * Call before serve() or serveDeferred().
     */
    void useWorkerPool(unsigned workers);

    /** Where a deferred answer goes. */
    struct Pending
    {
        proto::ConnId conn;
        proto::RpcId rpc;
        proto::FnId fn;
    };

    /** A deferred answer: charge @ref cost, then run @ref work, whose
     *  nested calls end in reply().  Empty @ref work drops the request. */
    struct Deferred
    {
        sim::Tick cost = 0;
        sim::EventFn work;
    };

    using DeferredHandler =
        std::function<Deferred(const proto::RpcMessage &, const Pending &)>;

    /**
     * Serve @p fn with a leaf handler, which returns its cost and
     * response.  It runs on the worker pool if the tier has one.
     */
    void serve(proto::FnId fn, rpc::Handler handler);

    /**
     * Serve @p fn with a deferred handler.  Simple: the dispatch loop
     * pays the cost and stays blocked until reply().  Optimized: the
     * cost and the work run on a worker; the dispatch loop moves on.
     */
    void serveDeferred(proto::FnId fn, DeferredHandler handler);

    /** Answer a deferred request (and unblock a Simple dispatch loop). */
    void reply(const Pending &pending, const void *data, std::size_t len);

    /**
     * Apply a timeout/retry policy to every downstream client, current
     * and future.  Budget-exhausted downstream calls count as degraded
     * (the tier served its caller without that dependency).
     */
    void setRetryPolicy(rpc::RetryPolicy policy);

    /**
     * Derive the retry policy from an end-to-end downstream budget:
     * with doubling backoff, first-attempt timeout T and @p attempts
     * resends, the worst-case wait is T * (2^(attempts+1) - 1) — so T
     * is sized such that the whole retry ladder completes within
     * @p total.  After the budget the call is degraded, never stuck.
     */
    void setTimeoutBudget(sim::Tick total, unsigned attempts);

    /** Bound this tier's RX backlog (admission control). */
    void setShedPolicy(rpc::ShedPolicy policy);

    /** Downstream calls that exhausted their retry budget. */
    std::uint64_t degradedCalls() const;

    /** Requests dropped by the shed policy. */
    std::uint64_t shedCalls() const { return _server->totalShed(); }

    rpc::RpcThreadedServer &server() { return *_server; }
    rpc::RpcServerThread &serverThread() { return _server->serverThread(0); }
    rpc::DaggerNode &node() { return *_node; }
    rpc::HwThread &dispatchThread() { return _cpus->core(0).thread(0); }
    /** Core @p i of the tier's own cores. */
    rpc::CpuCore &ownCore(unsigned i) { return _cpus->core(i); }
    const std::string &name() const { return _name; }
    rpc::WorkerPool *workerPool() { return _pool.get(); }
    /** Per-request service cost of every served request (ticks). */
    const sim::Histogram &service() const { return _service; }

  private:
    void registerMetrics();

    rpc::DaggerSystem &_sys;
    std::string _name;
    rpc::DaggerNode *_node;
    std::unique_ptr<rpc::CpuSet> _cpus;
    std::unique_ptr<rpc::RpcThreadedServer> _server;
    std::vector<std::unique_ptr<rpc::RpcClient>> _clients;
    std::unique_ptr<rpc::WorkerPool> _pool;
    unsigned _nextClientFlow = 1;
    rpc::RetryPolicy _retryPolicy; ///< applied when enabled()
    sim::Histogram _service;
};

} // namespace dagger::svc

#endif // DAGGER_SVC_TIER_HH
