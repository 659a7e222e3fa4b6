/**
 * @file
 * kvs_mica_zipf: MICA over Dagger with the object-level load balancer.
 *
 * One client flow keeps 48 requests outstanding over 1M preloaded keys
 * (16 B keys, 32 B values), Zipf 0.99, 50% GET / 50% SET.  SETs write
 * KvWorkload::valueFor(key), so every GET hit is checked against it.
 * The backend is wrapped in a timing decorator so the benchmark sees
 * the store's host cost without instrumenting src/.
 */

#include <memory>
#include <optional>
#include <string>

#include "bench.hh"
#include "trace.hh"

#include "app/adapters.hh"
#include "app/kvs_service.hh"
#include "app/mica.hh"
#include "app/workload.hh"
#include "rpc/client.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"

namespace perfbench {

namespace {

using namespace dagger;

constexpr std::uint64_t kKeys = 1'000'000;
constexpr double kTheta = 0.99;
constexpr double kGetRatio = 0.5;
constexpr unsigned kWindow = 48;
constexpr int kLlcWarmOps = 1'000'000;
constexpr sim::Tick kWarmup = sim::msToTicks(1);
constexpr sim::Tick kMeasure = sim::msToTicks(80);
constexpr unsigned kSlices = 32;

/**
 * KvBackend decorator: spans around MicaBackend's get/set, and the
 * LLC-model outcome of each access read off the cost it returns (the
 * store has one partition, so the hot and cold costs are the only
 * possible values).
 */
class TimedBackend final : public app::KvBackend
{
  public:
    explicit TimedBackend(app::MicaBackend &inner) : _inner(inner) {}

    std::optional<std::string>
    kvGet(unsigned partition, std::string_view key, sim::Tick &cost) override
    {
        Span span(Layer::AppKvGet);
        auto v = _inner.kvGet(partition, key, cost);
        ++_accesses;
        _llcHits += cost == _cost.hotGetCost;
        return v;
    }

    bool
    kvSet(unsigned partition, std::string_view key, std::string_view value,
          sim::Tick &cost) override
    {
        Span span(Layer::AppKvSet);
        const bool ok = _inner.kvSet(partition, key, value, cost);
        ++_accesses;
        _llcHits += cost == _cost.hotSetCost;
        return ok;
    }

    std::uint64_t accesses() const { return _accesses; }
    std::uint64_t llcHits() const { return _llcHits; }

  private:
    app::MicaBackend &_inner;
    app::MicaCost _cost;
    std::uint64_t _accesses = 0;
    std::uint64_t _llcHits = 0;
};

/** Closed-loop KVS client and server over one Dagger connection. */
class KvsRig
{
  public:
    KvsRig(app::KvBackend &backend, app::KvWorkload &wl)
        : _wl(wl), _sys(ic::IfaceKind::Upi)
    {
        nic::NicConfig cfg;
        cfg.numFlows = 1;
        cfg.txRingEntries = 512;
        cfg.rxRingEntries = 512;
        nic::SoftConfig soft;
        soft.batchSize = 4;
        rpc::DaggerNode &client = _sys.addNode(cfg, soft);
        rpc::DaggerNode &server = _sys.addNode(cfg, soft);
        server.nicDev().setObjectLevelKey(0, wl.shape().keyLen);

        _clientCpus = std::make_unique<rpc::CpuSet>(_sys.eq(), 1);
        _serverCpus = std::make_unique<rpc::CpuSet>(_sys.eq(), 1);
        _client = std::make_unique<rpc::RpcClient>(
            client, 0, _clientCpus->core(0).thread(0));
        _client->setConnection(
            _sys.connect(client, 0, server, 0, nic::LbScheme::ObjectLevel));
        _kvs = std::make_unique<app::KvsClient>(*_client);
        _server = std::make_unique<rpc::RpcThreadedServer>(server);
        _server->addThread(0, _serverCpus->core(0).thread(0));
        _app = std::make_unique<app::KvsServer>(*_server, backend);
    }

    void
    start()
    {
        for (unsigned w = 0; w < kWindow; ++w)
            fire();
    }

    rpc::DaggerSystem &system() { return _sys; }
    rpc::RpcClient &client() { return *_client; }

    std::uint64_t gets = 0, getHits = 0, sets = 0, notStored = 0;
    std::uint64_t mismatches = 0;

  private:
    void
    fire()
    {
        app::KvOp op;
        {
            Span span(Layer::AppWorkload);
            op = _wl.next();
        }
        Span span(Layer::RpcIssue);
        if (op.isGet) {
            _kvs->get(op.key, [this, k = op.keyIndex](bool hit,
                                                      std::string_view v) {
                onGet(k, hit, v);
            });
        } else {
            _kvs->set(op.key, op.value, [this](bool stored) {
                {
                    Span verify(Layer::BenchVerify);
                    ++sets;
                    notStored += !stored;
                }
                fire();
            });
        }
    }

    void
    onGet(std::uint64_t key_index, bool hit, std::string_view value)
    {
        {
            Span span(Layer::BenchVerify);
            ++gets;
            if (hit) {
                ++getHits;
                if (value != _wl.valueFor(_wl.keyFor(key_index)))
                    ++mismatches;
            }
        }
        fire();
    }

    app::KvWorkload &_wl;
    rpc::DaggerSystem _sys;
    std::unique_ptr<rpc::CpuSet> _clientCpus;
    std::unique_ptr<rpc::CpuSet> _serverCpus;
    std::unique_ptr<rpc::RpcClient> _client;
    std::unique_ptr<app::KvsClient> _kvs;
    std::unique_ptr<rpc::RpcThreadedServer> _server;
    std::unique_ptr<app::KvsServer> _app;
};

} // namespace

RepResult
runKvsMicaZipf(std::uint64_t run_seed, std::uint64_t rep, Tracer *tracer)
{
    RepResult r;
    Stopwatch setup;

    // Preload every key, then warm the LLC-residency model to its
    // steady state with a separate stream of the same mix.
    app::MicaKvs store(1, 64u << 20, 1u << 18);
    app::MicaBackend mica(store);
    app::KvWorkload wl(kKeys, kTheta, kGetRatio, app::kSmall,
                       repSeed(run_seed, rep));
    for (std::uint64_t i = 0; i < kKeys; ++i) {
        const std::string key = wl.keyFor(i);
        store.partition(0).set(key, wl.valueFor(key));
    }
    {
        app::KvWorkload warm(kKeys, kTheta, kGetRatio, app::kSmall,
                             repSeed(run_seed, rep, 1));
        sim::Tick scratch = 0;
        for (int i = 0; i < kLlcWarmOps; ++i) {
            const app::KvOp op = warm.next();
            if (op.isGet)
                mica.kvGet(0, op.key, scratch);
            else
                mica.kvSet(0, op.key, op.value, scratch);
        }
    }
    r.preloadSec = setup.seconds();

    TimedBackend backend(mica);
    KvsRig rig(backend, wl);
    rpc::DaggerSystem &sys = rig.system();
    rig.start();
    {
        Span span(Layer::SimRun);
        sys.runFor(kWarmup);
    }
    r.setupSec = setup.seconds();

    const Snapshot before = snapshot(sys.metrics());
    const app::MicaStats mica0 = store.totalStats();
    const std::uint64_t gets0 = rig.gets, hits0 = rig.getHits;
    const std::uint64_t sets0 = rig.sets, bad0 = rig.mismatches;
    const std::uint64_t notStored0 = rig.notStored;
    const std::uint64_t acc0 = backend.accesses();
    const std::uint64_t llc0 = backend.llcHits();
    const std::uint64_t fail0 = rig.client().sendFailures();
    const std::uint64_t ev0 = sys.eventsExecuted();
    runWindow(r, sys, kMeasure, kSlices, tracer,
              [&rig] { return rig.gets + rig.sets; });
    r.end = snapshot(sys.metrics());
    r.delta = delta(before, r.end);

    const app::MicaStats mica1 = store.totalStats();
    const std::uint64_t gets = rig.gets - gets0;
    const std::uint64_t sets = rig.sets - sets0;
    const std::uint64_t bad = rig.mismatches - bad0;
    const std::uint64_t notStored = rig.notStored - notStored0;
    const std::uint64_t sendFail = rig.client().sendFailures() - fail0;
    r.completed = gets + sets;
    r.attempted = r.completed + sendFail;
    r.failed = bad + notStored + sendFail;
    r.events = sys.eventsExecuted() - ev0;
    r.extra["kv_gets"] = static_cast<double>(gets);
    r.extra["kv_get_hits"] = static_cast<double>(rig.getHits - hits0);
    r.extra["kv_sets"] = static_cast<double>(sets);
    r.extra["mica_gets"] = static_cast<double>(mica1.gets - mica0.gets);
    r.extra["mica_get_hits"] =
        static_cast<double>(mica1.getHits - mica0.getHits);
    r.extra["llc_accesses"] = static_cast<double>(backend.accesses() - acc0);
    r.extra["llc_hits"] = static_cast<double>(backend.llcHits() - llc0);

    if (rig.mismatches != 0)
        r.problems.push_back("GET hit returned a value other than "
                             "KvWorkload::valueFor(key)");
    if (rig.notStored != 0)
        r.problems.push_back("SET not stored");
    if (rig.client().orphanResponses() != 0)
        r.problems.push_back("orphan KVS responses");
    if (r.completed == 0)
        r.problems.push_back("no KVS request completed in the window");

    r.simResults = "gets=" + std::to_string(gets) +
        " get_hits=" + std::to_string(rig.getHits - hits0) +
        " sets=" + std::to_string(sets) +
        " mismatches=" + std::to_string(bad) +
        " mica_evictions=" + std::to_string(mica1.indexEvictions) +
        " mica_wraps=" + std::to_string(mica1.logWraps) +
        " llc_hits=" + std::to_string(backend.llcHits() - llc0) +
        " now=" + std::to_string(sys.now()) +
        " rtt_p50=" + std::to_string(rig.client().latency().percentile(50)) +
        " rtt_p99=" + std::to_string(rig.client().latency().percentile(99));
    return r;
}

} // namespace perfbench
