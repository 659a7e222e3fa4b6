/**
 * @file
 * Microservice-tier framework over the Dagger fabric (§5.7).
 *
 * A Tier is one microservice process: its own NIC instance (the
 * virtualized-NIC deployment of Fig. 14), one server flow with a
 * dispatch thread, and one client flow per downstream dependency.
 * Tiers support chain and fan-out call patterns with both threading
 * models:
 *
 *  - Simple: handlers run (and block) in the dispatch thread;
 *  - Optimized: handler compute runs on a WorkerPool and nested calls
 *    never block the dispatch loop.
 */

#ifndef DAGGER_SVC_TIER_HH
#define DAGGER_SVC_TIER_HH

#include <memory>
#include <string>
#include <vector>

#include "rpc/client.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"
#include "svc/trace.hh"

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
     * @param name        tier name (for traces and metrics)
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
     * Apply the Optimized threading model with @p workers threads from
     * this tier's own cores (cores 1..workers; requires cores > workers).
     */
    void useWorkerPool(unsigned workers);

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
    Tracer &tracer() { return _tracer; }

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
    Tracer _tracer;
};

} // namespace dagger::svc

#endif // DAGGER_SVC_TIER_HH
