/**
 * @file
 * Shared bench harness: echo rigs over the Dagger fabric, load
 * drivers, and paper-vs-measured table printing.
 *
 * Every bench binary regenerates one table or figure of the paper and
 * prints the paper's reported value next to the measured one.  The
 * absolute anchors come from a calibrated model (see DESIGN.md §4);
 * the *shape* (ordering, ratios, crossovers) is the reproduction
 * target.
 */

#ifndef DAGGER_BENCH_HARNESS_HH
#define DAGGER_BENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "app/adapters.hh"
#include "app/kvs_service.hh"
#include "app/workload.hh"
#include "rpc/client.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"

namespace dagger::bench {

/** One measured operating point. */
struct Point
{
    double mrps = 0;    ///< achieved throughput, Mrps
    double p50_us = 0;  ///< median RTT
    double p99_us = 0;  ///< 99th percentile RTT
    double drops = 0;   ///< drop fraction
};

/** Echo rig: N client threads <-> N server flows over one fabric. */
class EchoRig
{
  public:
    struct Options
    {
        ic::IfaceKind iface = ic::IfaceKind::Upi;
        unsigned batch = 4;
        bool autoBatch = false;
        unsigned threads = 1;        ///< client software threads
        std::size_t payload = 48;    ///< one 64 B frame by default
        sim::Tick serverCost = sim::nsToTicks(10);
        bool bestEffort = false;     ///< allow drops (peak-rate mode)
        std::size_t txRingEntries = 512; ///< frames per TX ring
        std::size_t rxRingEntries = 512; ///< frames per RX ring
    };

    explicit EchoRig(const Options &opt)
        : _opt(opt), _sys(opt.iface), _rng(0xbe0c4)
    {
        nic::NicConfig cfg;
        cfg.numFlows = opt.threads;
        cfg.txRingEntries = opt.txRingEntries;
        cfg.rxRingEntries = opt.rxRingEntries;
        nic::SoftConfig soft;
        soft.batchSize = opt.batch;
        soft.autoBatch = opt.autoBatch;

        _clientNode = &_sys.addNode(cfg, soft);
        _serverNode = &_sys.addNode(cfg, soft);

        // Tight 80ns send loops co-schedule well on SMT siblings: a
        // mild 1.2x penalty matches the paper's near-linear scaling to
        // 4 threads on 2 cores.
        _clientCpus = std::make_unique<rpc::CpuSet>(
            _clientNode->eq(), std::max(1u, (opt.threads + 1) / 2), 1.2);
        _serverCpus =
            std::make_unique<rpc::CpuSet>(_serverNode->eq(), opt.threads);
        _server = std::make_unique<rpc::RpcThreadedServer>(*_serverNode);

        for (unsigned t = 0; t < opt.threads; ++t) {
            // Paper placement: logical client thread t -> core t/2.
            auto &cli = _clients.emplace_back(std::make_unique<rpc::RpcClient>(
                *_clientNode, t, _clientCpus->logicalThread(t)));
            cli->setConnection(_sys.connect(*_clientNode, t, *_serverNode,
                                            t, nic::LbScheme::Static));
            if (opt.bestEffort)
                cli->setBestEffort(true);
            _server->addThread(t, _serverCpus->core(t).thread(0));
        }
        // Handler cost carries a small exponential jitter so tail
        // percentiles behave like a real system rather than a
        // deterministic pipeline.
        auto jitter = std::make_shared<sim::Rng>(0x7a17);
        _server->registerHandler(1, [cost = opt.serverCost, jitter](
                                        const proto::RpcMessage &req) {
            rpc::HandlerOutcome out;
            out.response = req.payload();
            out.cost = cost +
                static_cast<sim::Tick>(jitter->exponential(
                    static_cast<double>(cost) * 0.5));
            return out;
        });
        _payload.assign(opt.payload, 0x5a);
    }

    /**
     * Closed-loop saturation run: @p window outstanding requests per
     * thread; measures completions over @p measure after @p warmup.
     */
    Point
    saturate(unsigned window = 32,
             sim::Tick warmup = sim::msToTicks(2),
             sim::Tick measure = sim::msToTicks(10))
    {
        for (auto &cli : _clients)
            for (unsigned w = 0; w < window; ++w)
                fireClosedLoop(*cli);
        return measureWindow(warmup, measure);
    }

    /**
     * Open-loop run at @p offered_mrps total (split across threads),
     * Poisson arrivals.
     */
    Point
    offer(double offered_mrps, sim::Tick warmup = sim::msToTicks(2),
          sim::Tick measure = sim::msToTicks(10))
    {
        const double per_thread =
            offered_mrps / static_cast<double>(_clients.size());
        _stopAt = _sys.now() + warmup + measure;
        for (auto &cli : _clients)
            fireOpenLoop(*cli, per_thread);
        return measureWindow(warmup, measure);
    }

    /**
     * Best-effort flood (§5.3): clients fire-and-forget at their CPU
     * send rate; the reported throughput is the rate the server side
     * actually processes, with drops allowed anywhere.
     */
    Point
    floodPeak(sim::Tick warmup = sim::msToTicks(2),
              sim::Tick measure = sim::msToTicks(10))
    {
        _stopAt = _sys.now() + warmup + measure;
        for (auto &cli : _clients)
            floodLoop(*cli);
        _sys.runFor(warmup);
        const std::uint64_t done0 = _server->totalProcessed();
        _sys.runFor(measure);
        const std::uint64_t done1 = _server->totalProcessed();
        Point p;
        p.mrps = sim::ratePerSec(done1 - done0, measure) / 1e6;
        const auto &mon = _serverNode->nicDev().monitor();
        const double seen = static_cast<double>(mon.rpcsIn.value());
        p.drops = seen == 0
            ? 0.0
            : static_cast<double>(mon.drops()) / seen;
        return p;
    }

    rpc::DaggerSystem &system() { return _sys; }
    rpc::RpcClient &client(unsigned i) { return *_clients.at(i); }
    rpc::RpcThreadedServer &server() { return *_server; }

  private:
    void
    floodLoop(rpc::RpcClient &cli)
    {
        sim::EventQueue &eq = _clientNode->eq();
        if (eq.now() >= _stopAt)
            return;
        cli.callAsync(1, _payload.data(), _payload.size());
        eq.schedule(_sys.sendCpuCost(*_clientNode),
                    [this, &cli] { floodLoop(cli); });
    }

    void
    fireClosedLoop(rpc::RpcClient &cli)
    {
        cli.callAsync(1, _payload.data(), _payload.size(),
                      [this, &cli](const proto::RpcMessage &) {
                          fireClosedLoop(cli);
                      });
    }

    void
    fireOpenLoop(rpc::RpcClient &cli, double mrps)
    {
        sim::EventQueue &eq = _clientNode->eq();
        if (eq.now() >= _stopAt)
            return;
        const double mean_gap_ns = 1000.0 / mrps;
        eq.schedule(
            sim::nsToTicks(_rng.exponential(mean_gap_ns)),
            [this, &cli, mrps] {
                if (_clientNode->eq().now() < _stopAt)
                    cli.callAsync(1, _payload.data(), _payload.size());
                fireOpenLoop(cli, mrps);
            });
    }

    Point
    measureWindow(sim::Tick warmup, sim::Tick measure)
    {
        _sys.runFor(warmup);
        std::uint64_t done0 = 0, sent0 = 0, fail0 = 0;
        for (auto &cli : _clients) {
            done0 += cli->responses();
            sent0 += cli->sent();
            fail0 += cli->sendFailures();
            cli->latency().reset();
        }
        _sys.runFor(measure);
        std::uint64_t done1 = 0, sent1 = 0, fail1 = 0;
        sim::Histogram lat;
        for (auto &cli : _clients) {
            done1 += cli->responses();
            sent1 += cli->sent();
            fail1 += cli->sendFailures();
            lat.merge(cli->latency());
        }
        Point p;
        p.mrps = sim::ratePerSec(done1 - done0, measure) / 1e6;
        p.p50_us = sim::ticksToUs(lat.percentile(50));
        p.p99_us = sim::ticksToUs(lat.percentile(99));
        const double attempts = static_cast<double>(
            (sent1 - sent0) + (fail1 - fail0));
        p.drops = attempts == 0
            ? 0.0
            : static_cast<double>(fail1 - fail0) / attempts;
        return p;
    }

    Options _opt;
    rpc::DaggerSystem _sys;
    std::unique_ptr<rpc::CpuSet> _clientCpus;
    std::unique_ptr<rpc::CpuSet> _serverCpus;
    sim::Rng _rng;
    rpc::DaggerNode *_clientNode;
    rpc::DaggerNode *_serverNode;
    std::unique_ptr<rpc::RpcThreadedServer> _server;
    std::vector<std::unique_ptr<rpc::RpcClient>> _clients;
    std::vector<std::uint8_t> _payload;
    sim::Tick _stopAt = 0;
};

/** Print a table header. */
inline void
tableHeader(const std::string &title, const std::string &cols)
{
    std::printf("\n=== %s ===\n%s\n", title.c_str(), cols.c_str());
}

/** Shape check helper: prints PASS/FAIL on a predicate. */
inline bool
shapeCheck(const char *what, bool ok)
{
    std::printf("shape-check: %-58s %s\n", what, ok ? "PASS" : "FAIL");
    return ok;
}

/**
 * Host wall-clock stopwatch for engine self-benchmarks.
 *
 * Wall time is only legal inside bench/harness.hh (the no-wallclock
 * lint rule keeps host time out of simulated quantities), so perf
 * benches that need to report events/sec measure through this timer
 * instead of calling steady_clock themselves.
 */
class WallTimer
{
  public:
    WallTimer() : _start(std::chrono::steady_clock::now()) {} // dagger-lint: allow(no-wallclock)

    /** Seconds of host time since construction (or the last reset()). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   // dagger-lint: allow(no-wallclock)
                   std::chrono::steady_clock::now() - _start)
            .count();
    }

    void reset() { *this = WallTimer(); }

  private:
    std::chrono::steady_clock::time_point _start; // dagger-lint: allow(no-wallclock)
};

/**
 * Parallel scenario runner.
 *
 * Takes a vector of independent scenario closures — each builds and
 * runs its own DaggerSystem, which is thread-safe by isolation (no
 * mutable globals anywhere in sim/) — and executes them on a pool of
 * std::threads.  Results come back in input order, so tables printed
 * from them are bit-identical to a serial run regardless of the job
 * count.  Closures must not share mutable state with each other.
 */
class SweepRunner
{
  public:
    /** @param jobs worker threads; 0 = defaultJobs(). */
    explicit SweepRunner(unsigned jobs = 0)
        : _jobs(jobs == 0 ? defaultJobs() : jobs)
    {}

    unsigned jobs() const { return _jobs; }

    /** Run all scenarios; result i is scenarios[i]'s return value. */
    template <typename R>
    std::vector<R>
    run(std::vector<std::function<R()>> scenarios) const
    {
        std::vector<R> results(scenarios.size());
        const unsigned workers = static_cast<unsigned>(
            std::min<std::size_t>(_jobs, scenarios.size()));
        std::atomic<std::size_t> next{0};
        auto worker = [&scenarios, &results, &next] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= scenarios.size())
                    return;
                results[i] = scenarios[i]();
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned t = 0; t < workers; ++t)
            pool.emplace_back(worker);
        for (auto &th : pool)
            th.join();
        return results;
    }

  private:
    /** One worker per hardware thread (at least one). */
    static unsigned
    defaultJobs()
    {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : hw;
    }

    unsigned _jobs;
};

/** @p s as a quoted, escaped JSON string. */
inline std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    out += sim::jsonEscape(s);
    out += '"';
    return out;
}

/**
 * One measured operating point for the JSON export: an ordered list of
 * (key, value) fields, where a value is a number or a tag string.
 */
class BenchPoint
{
  public:
    BenchPoint &
    tag(std::string key, std::string value)
    {
        _fields.push_back(
            Field{std::move(key), 0.0, std::move(value), false});
        return *this;
    }

    BenchPoint &
    value(std::string key, double v)
    {
        _fields.push_back(Field{std::move(key), v, {}, true});
        return *this;
    }

    /** Render as a JSON object (deterministic field order/format). */
    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < _fields.size(); ++i) {
            const Field &f = _fields[i];
            if (i > 0)
                out += ", ";
            out += jsonString(f.key);
            out += ": ";
            out += f.is_num ? sim::jsonNumber(f.num) : jsonString(f.str);
        }
        out += "}";
        return out;
    }

  private:
    struct Field
    {
        std::string key;
        double num;
        std::string str;
        bool is_num;
    };

    std::vector<Field> _fields;
};

/**
 * Shared per-binary bench state: parsed flags (--jobs/--json/--strict),
 * recorded points, shape checks and paper anchors, and the JSON
 * emitter.  Construct via benchMain() / DAGGER_BENCH_MAIN.
 */
class BenchContext
{
  public:
    BenchContext(std::string name, int argc, char **argv)
        : _name(std::move(name))
    {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--jobs" && i + 1 < argc) {
                _jobs = parseJobs(argv[++i]);
            } else if (a.rfind("--jobs=", 0) == 0) {
                _jobs = parseJobs(a.substr(7).c_str());
            } else if (a == "--json") {
                _jsonPath = (i + 1 < argc && argv[i + 1][0] != '-')
                    ? argv[++i]
                    : defaultJsonPath();
            } else if (a.rfind("--json=", 0) == 0) {
                _jsonPath = a.substr(7);
            } else if (a == "--strict") {
                _strict = true;
            } else if (a == "--help" || a == "-h") {
                std::printf(
                    "usage: %s [--jobs N] [--json [PATH]] "
                    "[--strict]\n"
                    "  --jobs N      scenario worker threads (default: "
                    "hardware threads)\n"
                    "  --json [PATH] write results to PATH (default "
                    "%s)\n"
                    "  --strict      exit nonzero when a paper anchor "
                    "misses its tolerance\n",
                    _name.c_str(), defaultJsonPath().c_str());
                std::exit(0);
            }
            // Unknown flags are ignored.
        }
    }

    const std::string &name() const { return _name; }
    bool strict() const { return _strict; }
    unsigned jobs() const { return SweepRunner(_jobs).jobs(); }
    SweepRunner runner() const { return SweepRunner(_jobs); }
    bool jsonRequested() const { return !_jsonPath.empty(); }

    /** Record a config key for the JSON export. */
    void
    config(std::string key, std::string value)
    {
        _config.emplace_back(std::move(key), jsonString(value));
    }

    void
    config(std::string key, double value)
    {
        _config.emplace_back(std::move(key), sim::jsonNumber(value));
    }

    void seed(std::uint64_t s) { _seed = s; }

    /** Append a point; chain tag()/value() calls on the result. */
    BenchPoint &
    point()
    {
        _points.emplace_back();
        return _points.back();
    }

    /** Shape check: prints the legacy PASS/FAIL line and records it. */
    bool
    check(const char *what, bool ok)
    {
        shapeCheck(what, ok);
        _checks.emplace_back(what, ok);
        return ok;
    }

    /**
     * Record a paper anchor: ok iff |measured - paper| <= rel_tol *
     * |paper|.  Under --strict a miss turns into exit code 2.
     */
    bool
    anchor(std::string name, double paper, double measured, double rel_tol)
    {
        Anchor a;
        a.name = std::move(name);
        a.paper = paper;
        a.measured = measured;
        a.rel_tol = rel_tol;
        a.ok = paper == 0.0
            ? measured == 0.0
            : std::abs(measured - paper) <= rel_tol * std::abs(paper);
        std::printf("anchor: %-50s paper=%-10.4g measured=%-10.4g "
                    "tol=%.0f%% %s\n",
                    a.name.c_str(), paper, measured, rel_tol * 100.0,
                    a.ok ? "OK" : "MISS");
        _anchors.push_back(std::move(a));
        return _anchors.back().ok;
    }

    /** All recorded points rendered as JSON (the determinism probe). */
    std::string
    pointsJson() const
    {
        std::string out = "[";
        for (std::size_t i = 0; i < _points.size(); ++i) {
            out += i == 0 ? "\n  " : ",\n  ";
            out += _points[i].json();
        }
        out += "\n]";
        return out;
    }

    /**
     * Emit the JSON file (when requested) and compute the exit code:
     * 1 on any failed shape check, 2 on a --strict anchor miss, else 0.
     */
    int
    finish()
    {
        const double wall = _wall.seconds();
        bool checksOk = true;
        for (const auto &c : _checks)
            checksOk = checksOk && c.second;
        bool anchorsOk = true;
        for (const Anchor &a : _anchors)
            anchorsOk = anchorsOk && a.ok;
        if (!_jsonPath.empty()) {
            std::ofstream f(_jsonPath);
            if (!f) {
                std::fprintf(stderr, "cannot write %s\n",
                             _jsonPath.c_str());
                return 1;
            }
            f << renderJson(wall, checksOk, anchorsOk);
            std::printf("json: wrote %s\n", _jsonPath.c_str());
        }
        if (!checksOk)
            return 1;
        if (_strict && !anchorsOk)
            return 2;
        return 0;
    }

  private:
    struct Anchor
    {
        std::string name;
        double paper = 0;
        double measured = 0;
        double rel_tol = 0;
        bool ok = false;
    };

    static unsigned
    parseJobs(const char *s)
    {
        const long n = std::strtol(s, nullptr, 10);
        return n >= 1 ? static_cast<unsigned>(n) : 1;
    }

    std::string defaultJsonPath() const { return "BENCH_" + _name + ".json"; }

    std::string
    renderJson(double wall, bool checks_ok, bool anchors_ok) const
    {
        std::string out = "{\n";
        out += "\"bench\": ";
        out += jsonString(_name);
        out += ",\n";
        out += "\"seed\": " + std::to_string(_seed) + ",\n";
        out += "\"jobs\": " + std::to_string(jobs()) + ",\n";
        out += "\"wall_clock_sec\": " + sim::jsonNumber(wall) + ",\n";
        out += "\"config\": {";
        for (std::size_t i = 0; i < _config.size(); ++i) {
            out += i == 0 ? "\n  " : ",\n  ";
            out += jsonString(_config[i].first);
            out += ": ";
            out += _config[i].second;
        }
        out += _config.empty() ? "},\n" : "\n},\n";
        out += "\"points\": " + pointsJson() + ",\n";
        out += "\"anchors\": [";
        for (std::size_t i = 0; i < _anchors.size(); ++i) {
            const Anchor &a = _anchors[i];
            out += i == 0 ? "\n  " : ",\n  ";
            out += "{\"name\": ";
            out += jsonString(a.name)
                + ", \"paper\": " + sim::jsonNumber(a.paper)
                + ", \"measured\": " + sim::jsonNumber(a.measured)
                + ", \"rel_tol\": " + sim::jsonNumber(a.rel_tol)
                + ", \"ok\": " + (a.ok ? "true" : "false") + "}";
        }
        out += _anchors.empty() ? "],\n" : "\n],\n";
        out += "\"checks\": [";
        for (std::size_t i = 0; i < _checks.size(); ++i) {
            out += i == 0 ? "\n  " : ",\n  ";
            out += "{\"what\": ";
            out += jsonString(_checks[i].first)
                + ", \"pass\": " + (_checks[i].second ? "true" : "false")
                + "}";
        }
        out += _checks.empty() ? "],\n" : "\n],\n";
        out += std::string("\"ok\": ")
            + (checks_ok && anchors_ok ? "true" : "false") + "\n}\n";
        return out;
    }

    std::string _name;
    /// host time since construction; only feeds the report's
    /// wall_clock_sec field, never a simulated quantity
    WallTimer _wall;
    unsigned _jobs = 0; ///< 0 = SweepRunner default
    bool _strict = false;
    std::string _jsonPath;
    std::uint64_t _seed = 0;
    std::vector<std::pair<std::string, std::string>> _config;
    std::deque<BenchPoint> _points;
    std::vector<std::pair<std::string, bool>> _checks;
    std::vector<Anchor> _anchors;
};

/** Shared bench entry point: flag parsing, run, JSON emit, exit code. */
inline int
benchMain(std::string name, int argc, char **argv,
          const std::function<void(BenchContext &)> &fn)
{
    BenchContext ctx(std::move(name), argc, argv);
    fn(ctx);
    return ctx.finish();
}

/** Define main() for a bench binary running @p fn (a BenchContext&
 * callable). */
#define DAGGER_BENCH_MAIN(benchname, fn)                                   \
    int main(int argc, char **argv)                                        \
    {                                                                      \
        return ::dagger::bench::benchMain(benchname, argc, argv, fn);      \
    }

} // namespace dagger::bench

#endif // DAGGER_BENCH_HARNESS_HH
