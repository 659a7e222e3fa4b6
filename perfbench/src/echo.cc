/**
 * @file
 * Echo workloads: closed-loop RPC echo between two nodes.
 *
 *  - echo_64b_upi: 4 client flows x 32 outstanding, 48 B payloads (one
 *    64 B frame), coherent UPI interface.  Fixed per-RPC cost.
 *  - echo_4k_pcie: 2 flows x 8 outstanding, 4 KB payloads (86 frames),
 *    PCIe doorbell batching, 2048-entry rings.  Per-frame cost.
 *
 * Request payloads come from a seeded pool; every response is
 * byte-compared with the request it answers.
 */

#include <cstring>
#include <memory>
#include <vector>

#include "bench.hh"
#include "trace.hh"

#include "rpc/client.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"
#include "sim/rng.hh"

namespace perfbench {

namespace {

using namespace dagger;

struct EchoSpec
{
    ic::IfaceKind iface;
    unsigned flows;
    unsigned window;         ///< outstanding calls per flow
    std::size_t payload;     ///< request bytes
    std::size_t ringEntries; ///< TX and RX ring entries per flow
    sim::Tick measure;       ///< simulated length of the timed window
};

constexpr proto::FnId kEchoFn = 1;
constexpr sim::Tick kWarmup = sim::msToTicks(1);
constexpr unsigned kSlices = 16;
constexpr std::size_t kPoolSize = 64;
constexpr sim::Tick kServerCost = sim::nsToTicks(10);

class EchoRig
{
  public:
    EchoRig(const EchoSpec &spec, std::uint64_t seed)
        : _spec(spec), _sys(spec.iface)
    {
        nic::NicConfig cfg;
        cfg.numFlows = spec.flows;
        cfg.iface = spec.iface;
        cfg.txRingEntries = spec.ringEntries;
        cfg.rxRingEntries = spec.ringEntries;
        nic::SoftConfig soft;
        soft.batchSize = 4;
        rpc::DaggerNode &client = _sys.addNode(cfg, soft);
        rpc::DaggerNode &server = _sys.addNode(cfg, soft);

        // Paper placement: logical client thread t on core t/2 with a
        // mild SMT penalty; one server core per flow.
        _clientCpus = std::make_unique<rpc::CpuSet>(
            _sys.eq(), std::max(1u, (spec.flows + 1) / 2), 1.2);
        _serverCpus = std::make_unique<rpc::CpuSet>(_sys.eq(), spec.flows);
        _server = std::make_unique<rpc::RpcThreadedServer>(server);
        for (unsigned f = 0; f < spec.flows; ++f) {
            auto &cli = _clients.emplace_back(std::make_unique<rpc::RpcClient>(
                client, f, _clientCpus->logicalThread(f)));
            cli->setConnection(
                _sys.connect(client, f, server, f, nic::LbScheme::Static));
            _server->addThread(f, _serverCpus->core(f).thread(0));
        }

        // Echo handler with a small exponential service-time jitter.
        auto jitter = std::make_shared<sim::Rng>(repSeed(seed, 0, 1));
        _server->registerHandler(
            kEchoFn, [jitter](const proto::RpcMessage &req) {
                Span span(Layer::RpcHandler);
                rpc::HandlerOutcome out;
                out.response = req.payload();
                out.cost = kServerCost +
                    static_cast<sim::Tick>(jitter->exponential(
                        static_cast<double>(kServerCost) * 0.5));
                return out;
            });

        sim::Rng bytes(repSeed(seed, 0, 2));
        _pool.resize(kPoolSize);
        for (auto &p : _pool) {
            p.resize(spec.payload);
            for (auto &b : p)
                b = static_cast<std::uint8_t>(bytes.next64());
        }
    }

    /** Fill every flow's window. */
    void
    start()
    {
        for (unsigned f = 0; f < _spec.flows; ++f)
            for (unsigned w = 0; w < _spec.window; ++w)
                fire(f);
    }

    rpc::DaggerSystem &system() { return _sys; }
    std::uint64_t completed() const { return _completed; }
    std::uint64_t mismatches() const { return _mismatches; }

    std::uint64_t
    sendFailures() const
    {
        std::uint64_t n = 0;
        for (const auto &c : _clients)
            n += c->sendFailures();
        return n;
    }

    std::uint64_t
    orphans() const
    {
        std::uint64_t n = 0;
        for (const auto &c : _clients)
            n += c->orphanResponses();
        return n;
    }

    sim::Histogram
    latency() const
    {
        sim::Histogram h;
        for (const auto &c : _clients)
            h.merge(c->latency());
        return h;
    }

  private:
    void
    fire(unsigned flow)
    {
        const auto idx = static_cast<std::uint32_t>(_next++ % kPoolSize);
        const std::vector<std::uint8_t> &p = _pool[idx];
        Span span(Layer::RpcIssue);
        _clients[flow]->callAsync(
            kEchoFn, p.data(), p.size(),
            [this, flow, idx](const proto::RpcMessage &resp) {
                onResponse(flow, idx, resp);
            });
    }

    void
    onResponse(unsigned flow, std::uint32_t idx,
               const proto::RpcMessage &resp)
    {
        {
            Span span(Layer::BenchVerify);
            const std::vector<std::uint8_t> &p = _pool[idx];
            if (resp.payloadLen() != p.size() ||
                std::memcmp(resp.payload().data(), p.data(), p.size()) != 0)
                ++_mismatches;
            ++_completed;
        }
        fire(flow);
    }

    EchoSpec _spec;
    rpc::DaggerSystem _sys;
    std::unique_ptr<rpc::CpuSet> _clientCpus;
    std::unique_ptr<rpc::CpuSet> _serverCpus;
    std::unique_ptr<rpc::RpcThreadedServer> _server;
    std::vector<std::unique_ptr<rpc::RpcClient>> _clients;
    std::vector<std::vector<std::uint8_t>> _pool;
    std::uint64_t _next = 0;
    std::uint64_t _completed = 0;
    std::uint64_t _mismatches = 0;
};

RepResult
runEchoRep(const EchoSpec &spec, std::uint64_t run_seed, std::uint64_t rep,
           Tracer *tracer)
{
    RepResult r;
    Stopwatch setup;
    EchoRig rig(spec, repSeed(run_seed, rep));
    rpc::DaggerSystem &sys = rig.system();
    rig.start();
    {
        Span span(Layer::SimRun);
        sys.runFor(kWarmup);
    }
    r.setupSec = setup.seconds();

    const Snapshot before = snapshot(sys.metrics());
    const std::uint64_t done0 = rig.completed();
    const std::uint64_t bad0 = rig.mismatches();
    const std::uint64_t fail0 = rig.sendFailures();
    const std::uint64_t ev0 = sys.eventsExecuted();
    runWindow(r, sys, spec.measure, kSlices, tracer,
              [&rig] { return rig.completed(); });
    r.end = snapshot(sys.metrics());
    r.delta = delta(before, r.end);

    const std::uint64_t bad = rig.mismatches() - bad0;
    const std::uint64_t sendFail = rig.sendFailures() - fail0;
    r.completed = rig.completed() - done0;
    r.events = sys.eventsExecuted() - ev0;
    r.failed = bad + sendFail;
    r.attempted = r.completed + sendFail;
    if (rig.mismatches() != 0)
        r.problems.push_back("echo response differs from its request");
    if (rig.orphans() != 0)
        r.problems.push_back("orphan echo responses");
    if (r.completed == 0)
        r.problems.push_back("no echo completed in the window");

    const sim::Histogram lat = rig.latency();
    r.simResults = "completed=" + std::to_string(r.completed) +
        " mismatches=" + std::to_string(bad) +
        " send_failures=" + std::to_string(sendFail) +
        " now=" + std::to_string(sys.now()) +
        " rtt_count=" + std::to_string(lat.count()) +
        " rtt_p50=" + std::to_string(lat.percentile(50)) +
        " rtt_p99=" + std::to_string(lat.percentile(99));
    return r;
}

} // namespace

RepResult
runEcho64bUpi(std::uint64_t run_seed, std::uint64_t rep, Tracer *tracer)
{
    static const EchoSpec spec{ic::IfaceKind::Upi, 4, 32, 48, 512,
                               sim::msToTicks(8)};
    return runEchoRep(spec, run_seed, rep, tracer);
}

RepResult
runEcho4kPcie(std::uint64_t run_seed, std::uint64_t rep, Tracer *tracer)
{
    static const EchoSpec spec{ic::IfaceKind::DoorbellBatch, 2, 8, 4096,
                               2048, sim::msToTicks(40)};
    return runEchoRep(spec, run_seed, rep, tracer);
}

} // namespace perfbench
