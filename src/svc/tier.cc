#include "svc/tier.hh"

#include <cmath>

#include "sim/logging.hh"

namespace dagger::svc {

Tier::Tier(rpc::DaggerSystem &sys, std::string name, unsigned downstreams,
           unsigned cores, nic::NicConfig cfg, nic::SoftConfig soft)
    : _sys(sys), _name(std::move(name))
{
    dagger_assert(cores > 0, "tier '", _name, "' needs at least one core");
    cfg.numFlows = 1 + downstreams;
    _node = &sys.addNode(cfg, soft);
    _cpus = std::make_unique<rpc::CpuSet>(_node->eq(), cores);
    _server = std::make_unique<rpc::RpcThreadedServer>(*_node);
    _server->addThread(0, dispatchThread());
    registerMetrics();
}

void
Tier::registerMetrics()
{
    // The gauge closures reference this tier, which — like every
    // registered component — must outlive report rendering.
    sim::MetricScope scope(_sys.metrics(), "svc." + _name);
    scope.intGauge("degraded_calls", [this] { return degradedCalls(); });
    scope.intGauge("shed_calls", [this] { return shedCalls(); });
}

rpc::RpcClient &
Tier::connectTo(Tier &server_tier, nic::LbScheme lb)
{
    dagger_assert(_nextClientFlow < _node->numFlows(),
                  "tier '", _name, "' has no free client flows");
    const unsigned flow = _nextClientFlow++;
    auto client = std::make_unique<rpc::RpcClient>(*_node, flow,
                                                   dispatchThread());
    const proto::ConnId conn =
        _sys.connect(*_node, flow, server_tier.node(), 0, lb);
    client->setConnection(conn);
    if (_retryPolicy.enabled())
        client->setRetryPolicy(_retryPolicy);
    _clients.push_back(std::move(client));
    return *_clients.back();
}

void
Tier::setRetryPolicy(rpc::RetryPolicy policy)
{
    _retryPolicy = policy;
    for (auto &client : _clients)
        client->setRetryPolicy(policy);
}

void
Tier::setTimeoutBudget(sim::Tick total, unsigned attempts)
{
    dagger_assert(total > 0, "timeout budget must be positive");
    // Doubling ladder: T + 2T + ... + 2^attempts * T = total.
    const std::uint64_t ladder = (1ull << (attempts + 1)) - 1;
    rpc::RetryPolicy policy;
    policy.timeout = std::max<sim::Tick>(1, total / ladder);
    policy.maxRetries = attempts;
    policy.backoff = 2.0;
    policy.maxTimeout = total;
    setRetryPolicy(policy);
}

void
Tier::setShedPolicy(rpc::ShedPolicy policy)
{
    _server->setShedPolicy(policy);
}

std::uint64_t
Tier::degradedCalls() const
{
    std::uint64_t n = 0;
    for (const auto &client : _clients)
        n += client->timeouts();
    return n;
}

void
Tier::useWorkerPool(unsigned workers)
{
    dagger_assert(_cpus->numCores() > workers,
                  "tier '", _name, "' has ", _cpus->numCores(),
                  " cores, needs ", workers + 1, " for a ", workers,
                  "-worker pool");
    std::vector<rpc::HwThread *> threads;
    for (unsigned w = 0; w < workers; ++w)
        threads.push_back(&_cpus->core(1 + w).thread(0));
    _pool = std::make_unique<rpc::WorkerPool>(_sys, std::move(threads));
}

void
Tier::serve(proto::FnId fn, rpc::Handler handler)
{
    // The server thread hands leaf handlers to the pool (nullptr keeps
    // them on the dispatch thread).
    serverThread().setWorkerPool(_pool.get());
    serverThread().registerHandler(
        fn, [this, handler = std::move(handler)](const proto::RpcMessage &req) {
            rpc::HandlerOutcome out = handler(req);
            if (out.respond)
                _service.record(out.cost);
            return out;
        });
}

void
Tier::serveDeferred(proto::FnId fn, DeferredHandler handler)
{
    serverThread().registerHandler(
        fn, [this, handler = std::move(handler)](const proto::RpcMessage &req) {
            rpc::HandlerOutcome out;
            out.respond = false;
            Deferred d =
                handler(req, Pending{req.connId(), req.rpcId(), req.fnId()});
            if (!d.work)
                return out;
            _service.record(d.cost);
            if (_pool) {
                _pool->submit(d.cost, std::move(d.work));
                return out;
            }
            serverThread().pause();
            out.cost = d.cost;
            d.work();
            return out;
        });
}

void
Tier::reply(const Pending &pending, const void *data, std::size_t len)
{
    serverThread().respondLater(pending.conn, pending.rpc, pending.fn, data,
                                len);
    if (!_pool)
        serverThread().resume();
}

} // namespace dagger::svc
