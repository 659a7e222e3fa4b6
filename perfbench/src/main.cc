/**
 * @file
 * dagger_perfbench: host-cost benchmark of the Dagger simulator.
 *
 *   dagger_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--trace-out PATH]
 *
 * Runs repetitions of one workload (see bench.hh) until S host seconds
 * have passed, and at least kMinReps of them.  Prints progress to
 * stderr and one JSON object on stdout: the run's checks, attempted
 * and failed requests, the simulated digest, and its metrics.  With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 every
 * second repetition is traced and the metrics are the per-layer ones,
 * plus the tracing overhead measured against the untraced repetitions.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hh"
#include "trace.hh"

namespace perfbench {

// ---------------------------------------------------------------------------
// bench.hh helpers
// ---------------------------------------------------------------------------

Snapshot
snapshot(const dagger::sim::MetricRegistry &reg)
{
    using Kind = dagger::sim::MetricRegistry::Kind;
    Snapshot s;
    reg.forEach([&s](const dagger::sim::MetricRegistry::Entry &e) {
        switch (e.kind) {
        case Kind::Counter:
            s[e.name] = static_cast<double>(e.counter->value());
            break;
        case Kind::IntGauge:
            s[e.name] = static_cast<double>(e.intGauge());
            break;
        case Kind::Gauge:
            s[e.name] = e.gauge();
            break;
        case Kind::Histogram: {
            const dagger::sim::Histogram &h = *e.histogram;
            const double n = static_cast<double>(h.count());
            s[e.name + ".count"] = n;
            s[e.name + ".sum"] = h.mean() * n;
            s[e.name + ".max"] = static_cast<double>(h.max());
            s[e.name + ".p50"] = static_cast<double>(h.percentile(50));
            s[e.name + ".p99"] = static_cast<double>(h.percentile(99));
            break;
        }
        case Kind::Section:
            break;
        }
    });
    return s;
}

Snapshot
delta(const Snapshot &before, const Snapshot &after)
{
    Snapshot d;
    for (const auto &[name, v] : after) {
        auto it = before.find(name);
        d[name] = it == before.end() ? v : v - it->second;
    }
    return d;
}

double
sumMatching(const Snapshot &s, std::string_view prefix,
            std::string_view suffix)
{
    double sum = 0;
    for (const auto &[name, v] : s) {
        const std::string_view n(name);
        if (n.size() >= prefix.size() + suffix.size() &&
            n.substr(0, prefix.size()) == prefix &&
            n.substr(n.size() - suffix.size()) == suffix)
            sum += v;
    }
    return sum;
}

double
valueOf(const Snapshot &s, const std::string &name)
{
    auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second;
}

std::uint64_t
repSeed(std::uint64_t run_seed, std::uint64_t rep, std::uint64_t stream)
{
    std::uint64_t z = run_seed * 0x9e3779b97f4a7c15ull + rep * 0xbf58476d1ce4e5b9ull +
        stream * 0x94d049bb133111ebull + 0x243f6a8885a308d3ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Digest::add(std::string_view text)
{
    for (unsigned char c : text) {
        _h ^= c;
        _h *= 0x100000001b3ull;
    }
}

void
Digest::add(const RepResult &r)
{
    add(r.simResults);
    add("\n");
    char num[64];
    for (const auto &[name, v] : r.end) {
        const bool global = name.rfind("sim.payload.", 0) == 0;
        std::snprintf(num, sizeof(num), "=%.17g\n",
                      global ? valueOf(r.delta, name) : v);
        add(name);
        add(num);
    }
    for (const auto &[name, v] : r.extra) {
        std::snprintf(num, sizeof(num), "=%.17g\n", v);
        add(name);
        add(num);
    }
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, _h);
    return buf;
}

namespace {

/** Repetitions every run makes; the digest and the per-layer counts
 *  cover exactly these, so they repeat whatever the host speed. */
constexpr std::uint64_t kDigestReps = 3;
/** A traced run needs untraced repetitions to compare against. */
constexpr std::uint64_t kMinReps = 4;

struct WorkloadEntry
{
    const char *name;
    RepFn run;
};

constexpr WorkloadEntry kWorkloads[] = {
    {"echo_64b_upi", runEcho64bUpi},
    {"echo_4k_pcie", runEcho4kPcie},
    {"kvs_mica_zipf", runKvsMicaZipf},
    {"flight_openloop", runFlightOpenLoop},
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Throughput of a run: the rate of its fastest slice.  Contention from
 * neighbouring processes only ever slows a slice down, and on a shared
 * host it comes and goes within a second, so the fastest of many short
 * slices is the steadiest estimate of the uncontended rate.
 */
double
rateOf(const std::vector<double> &rates)
{
    return rates.empty() ? 0.0 : *std::max_element(rates.begin(), rates.end());
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

/** VmHWM of this process in MiB, or 0 if /proc is unreadable. */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

class MetricList
{
  public:
    void
    add(const char *name, double value, const char *unit)
    {
        _items.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        char buf[96];
        for (std::size_t i = 0; i < _items.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%.17g", _items[i].value);
            out += (i ? ", \"" : "\"") + _items[i].name +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                _items[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> _items;
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

struct Rep
{
    RepResult r;
    bool traced;
};

/** Per-layer metrics: counts over the digest repetitions, host time
 *  over the traced ones. */
void
addLayerMetrics(MetricList &m, const std::vector<Rep> &reps,
                const Tracer &tracer)
{
    Snapshot d;
    std::map<std::string, double> extra;
    double done = 0, events = 0, maxPending = 0;
    for (std::uint64_t i = 0; i < kDigestReps; ++i) {
        const RepResult &r = reps[i].r;
        for (const auto &[k, v] : r.delta)
            d[k] += v;
        for (const auto &[k, v] : r.extra)
            extra[k] += v;
        done += static_cast<double>(r.completed);
        events += static_cast<double>(r.events);
        maxPending = std::max(maxPending,
                              valueOf(r.end, "sim.events.max_pending"));
    }
    auto x = [&extra](const char *k) {
        auto it = extra.find(k);
        return it == extra.end() ? 0.0 : it->second;
    };
    auto perReq = [done](double v) { return ratio(v, done); };

    double tracedDone = 0, tracedEvents = 0;
    std::vector<double> tracedRates, plainRates;
    for (const Rep &rep : reps) {
        std::vector<double> &rates = rep.traced ? tracedRates : plainRates;
        rates.insert(rates.end(), rep.r.sliceRates.begin(),
                     rep.r.sliceRates.end());
        if (rep.traced) {
            tracedDone += static_cast<double>(rep.r.completed);
            tracedEvents += static_cast<double>(rep.r.events);
        }
    }
    auto self = [&tracer](Layer l) {
        return static_cast<double>(tracer.layer(l).selfNs);
    };
    auto pct = [&tracer](Layer l, double p) {
        return static_cast<double>(tracer.layer(l).durNs.percentile(p));
    };

    // sim
    m.add("sim.events_per_req", perReq(events), "events/req");
    m.add("sim.host_ns_per_event", ratio(self(Layer::SimRun), tracedEvents),
          "ns/event");
    const double wheel = valueOf(d, "sim.events.wheel_admits");
    const double far = valueOf(d, "sim.events.frame_admits") +
        valueOf(d, "sim.events.heap_admits");
    m.add("sim.far_admit_share", ratio(far, wheel + far), "ratio");
    m.add("sim.pool_misses", valueOf(d, "sim.events.pool_misses"), "count");
    m.add("sim.max_pending", maxPending, "count");
    m.add("sim.self_ns_per_req", ratio(self(Layer::SimRun), tracedDone),
          "ns/req");
    // proto
    m.add("proto.bytes_copied_per_req",
          perReq(valueOf(d, "sim.payload.bytes_copied")), "B/req");
    m.add("proto.handle_passes_per_req",
          perReq(valueOf(d, "sim.payload.handle_passes")), "passes/req");
    // rpc
    m.add("rpc.issue_host_ns.p50", pct(Layer::RpcIssue, 50), "ns");
    m.add("rpc.issue_host_ns.p99", pct(Layer::RpcIssue, 99), "ns");
    m.add("rpc.issue_self_ns_per_req",
          ratio(self(Layer::RpcIssue), tracedDone), "ns/req");
    m.add("rpc.handler_host_ns.p50", pct(Layer::RpcHandler, 50), "ns");
    m.add("rpc.handler_host_ns.p99", pct(Layer::RpcHandler, 99), "ns");
    m.add("rpc.tx_blocked_per_req", perReq(sumMatching(d, "node", ".tx.blocked")),
          "blocks/req");
    m.add("rpc.retries_per_req",
          perReq(valueOf(d, "rpc.reliability.retries")), "retries/req");
    m.add("rpc.timeouts", valueOf(d, "rpc.reliability.timeouts"), "count");
    // ic
    m.add("ic.lines_per_req",
          perReq(valueOf(d, "fabric.to_nic.lines") +
                 valueOf(d, "fabric.to_host.lines")),
          "lines/req");
    m.add("ic.txns_per_req",
          perReq(valueOf(d, "fabric.to_nic.txns") +
                 valueOf(d, "fabric.to_host.txns")),
          "txns/req");
    m.add("ic.stalls_per_req", perReq(sumMatching(d, "fabric.", ".stalls")),
          "stalls/req");
    // nic
    m.add("nic.frames_per_req",
          perReq(sumMatching(d, "node", ".nic.frames_fetched") +
                 sumMatching(d, "node", ".nic.frames_posted")),
          "frames/req");
    m.add("nic.req_buffer_rejections_per_req",
          perReq(sumMatching(d, "node", ".nic.req_buffer.rejections")),
          "rejects/req");
    m.add("nic.fetch_batch_mean",
          ratio(sumMatching(d, "node", ".nic.fetch_batch.sum"),
                sumMatching(d, "node", ".nic.fetch_batch.count")),
          "frames");
    const double ccHits = sumMatching(d, "node", ".nic.conn_cache.hits");
    m.add("nic.conn_cache_hit_rate",
          ratio(ccHits,
                ccHits + sumMatching(d, "node", ".nic.conn_cache.misses")),
          "ratio");
    // mem
    const double hccHits = sumMatching(d, "node", ".nic.hcc.hits");
    m.add("mem.hcc_hit_rate",
          ratio(hccHits, hccHits + sumMatching(d, "node", ".nic.hcc.misses")),
          "ratio");
    m.add("mem.llc_hit_rate", ratio(x("llc_hits"), x("llc_accesses")),
          "ratio");
    // net
    m.add("net.forwarded_per_req", perReq(valueOf(d, "tor.forwarded")),
          "pkts/req");
    m.add("net.dropped", valueOf(d, "tor.dropped"), "count");
    // app
    m.add("app.kv_get_host_ns.p50", pct(Layer::AppKvGet, 50), "ns");
    m.add("app.kv_get_host_ns.p99", pct(Layer::AppKvGet, 99), "ns");
    m.add("app.kv_set_host_ns.p50", pct(Layer::AppKvSet, 50), "ns");
    m.add("app.kv_set_host_ns.p99", pct(Layer::AppKvSet, 99), "ns");
    m.add("app.kv_self_ns_per_req",
          ratio(self(Layer::AppKvGet) + self(Layer::AppKvSet), tracedDone),
          "ns/req");
    m.add("app.workload_next_host_ns.p50", pct(Layer::AppWorkload, 50), "ns");
    m.add("app.workload_next_self_ns_per_req",
          ratio(self(Layer::AppWorkload), tracedDone), "ns/req");
    m.add("app.mica_get_hit_rate", ratio(x("mica_get_hits"), x("mica_gets")),
          "ratio");
    std::vector<double> preload;
    for (const Rep &rep : reps)
        preload.push_back(rep.r.preloadSec);
    m.add("app.preload_s", median(preload), "s");
    // svc
    m.add("svc.rpcs_per_req",
          perReq(sumMatching(d, "node", ".nic.rpcs_out") / 2), "rpcs/req");
    m.add("svc.degraded_share", ratio(x("svc_degraded"), done), "ratio");
    m.add("svc.shed_calls", sumMatching(d, "svc.", ".shed_calls"), "count");
    // the benchmark itself
    m.add("bench.verify_self_ns_per_req",
          ratio(self(Layer::BenchVerify), tracedDone), "ns/req");
    const double plain = rateOf(plainRates);
    const double traced = rateOf(tracedRates);
    m.add("trace.reqs_per_host_s_untraced", plain, "1/s");
    m.add("trace.reqs_per_host_s_traced", traced, "1/s");
    m.add("trace.overhead_share", plain == 0 ? 0.0 : 1.0 - traced / plain,
          "ratio");
    m.add("trace.spans_per_req",
          ratio(static_cast<double>(tracer.spansOpened()), tracedDone),
          "spans/req");
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--trace-out PATH]\n",
                     argv[0]);
        return 2;
    }
    RepFn run = nullptr;
    for (const WorkloadEntry &w : kWorkloads)
        if (args.workload == w.name)
            run = w.run;
    if (!run) {
        std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }

    Tracer tracer;
    std::vector<Rep> reps;
    const Stopwatch total;
    for (std::uint64_t i = 0;
         i < kMinReps || total.seconds() < args.seconds; ++i) {
        const bool traced = args.trace && i % 2 == 1;
        reps.push_back({run(args.seed, i, traced ? &tracer : nullptr), traced});
        const Rep &rep = reps.back();
        std::fprintf(stderr,
                     "rep %" PRIu64 "%s: setup %.4f s, window %.4f s, "
                     "%" PRIu64 " reqs, %" PRIu64 " failed, %" PRIu64
                     " events, reqs/s:",
                     i, traced ? " (traced)" : "", rep.r.setupSec,
                     rep.r.windowSec, rep.r.completed, rep.r.failed,
                     rep.r.events);
        for (double rate : rep.r.sliceRates)
            std::fprintf(stderr, " %.0f", rate);
        if (rep.r.failed)
            for (const auto &[k, v] : rep.r.extra)
                std::fprintf(stderr, " %s=%.0f", k.c_str(), v);
        std::fprintf(stderr, "\n");
    }

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    std::string problems;
    for (const Rep &rep : reps) {
        attempted += rep.r.attempted;
        failed += rep.r.failed;
        for (const std::string &p : rep.r.problems) {
            correct = false;
            problems += (problems.empty() ? "" : ", ") + jsonString(p);
        }
    }
    Digest digest;
    for (std::uint64_t i = 0; i < kDigestReps; ++i)
        digest.add(reps[i].r);

    MetricList metrics;
    if (args.trace) {
        addLayerMetrics(metrics, reps, tracer);
        if (!args.traceOut.empty() && !tracer.write(args.traceOut))
            std::fprintf(stderr, "cannot write %s\n", args.traceOut.c_str());
    } else {
        std::vector<double> rates, setups;
        for (const Rep &rep : reps) {
            rates.insert(rates.end(), rep.r.sliceRates.begin(),
                         rep.r.sliceRates.end());
            setups.push_back(rep.r.setupSec);
        }
        metrics.add("sim_reqs_per_host_s", rateOf(rates), "1/s");
        metrics.add("setup_s", median(setups), "s");
        metrics.add("peak_rss_mb", peakRssMb(), "MB");
    }

    std::printf("{\"workload\": %s, \"seed\": %" PRIu64 ", \"trace\": %d, "
                "\"reps\": %zu, \"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"sim_digest\": \"%s\", "
                "\"problems\": [%s], \"metrics\": %s}\n",
                jsonString(args.workload).c_str(), args.seed,
                args.trace ? 1 : 0, reps.size(), correct ? "true" : "false",
                attempted, failed, digest.hex().c_str(), problems.c_str(),
                metrics.json().c_str());
    return 0;
}
