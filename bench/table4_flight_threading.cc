/**
 * @file
 * Reproduces Table 4: the Flight Registration service under the
 * Simple (dispatch-thread) and Optimized (worker-thread) threading
 * models — highest sustainable load (<1% drops) and lowest latency.
 *
 * Paper: Simple 2.7 Krps / 13.3 / 20.2 / 23.8 us (p50/p90/p99);
 * Optimized 48 Krps / 23.4 / 27.3 / 33.6 us — "such a change in the
 * threading model dramatically increases the overall application
 * throughput by up to 17x" at the price of inter-thread latency.
 */

#include <cstdio>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "svc/flight.hh"

namespace {

using namespace dagger;
using namespace dagger::bench;
using svc::FlightApp;
using svc::FlightConfig;
using svc::ThreadingModel;

/** One FlightApp run (light-load latency probe or loaded drop probe). */
struct FlightProbe
{
    double p50 = 0, p90 = 0, p99 = 0;
    double drop_rate = 0;
    std::uint64_t completed = 0;
    std::string bottleneck;
};

FlightProbe
probe(ThreadingModel model, double krps, sim::Tick duration)
{
    FlightConfig cfg;
    cfg.model = model;
    cfg.staffReadRate = 500;
    FlightApp app(cfg);
    app.run(krps, duration);
    FlightProbe r;
    r.p50 = sim::ticksToUs(app.e2eLatency().percentile(50));
    r.p90 = sim::ticksToUs(app.e2eLatency().percentile(90));
    r.p99 = sim::ticksToUs(app.e2eLatency().percentile(99));
    r.drop_rate = app.dropRate();
    r.completed = app.completed();
    r.bottleneck = app.bottleneck().name();
    return r;
}

struct ModelResult
{
    double max_krps = 0;
    double p50 = 0, p90 = 0, p99 = 0;
    std::string bottleneck;
};

const std::vector<double> kLoadsSimple = {1, 1.5, 2, 2.5, 3, 3.5, 4, 5};
const std::vector<double> kLoadsOpt = {5, 10, 20, 30, 40, 45, 50, 55, 60};

/**
 * Aggregate one model's probes: index 0 is the light-load latency run,
 * the rest climb the load ladder.  The serial sweep stopped at the
 * first load with >= 1% drops; the same stop rule is applied here so
 * results are identical at any --jobs count.
 */
ModelResult
aggregate(const std::vector<FlightProbe> &probes,
          const std::vector<double> &loads)
{
    ModelResult result;
    result.p50 = probes[0].p50;
    result.p90 = probes[0].p90;
    result.p99 = probes[0].p99;
    result.bottleneck = probes[0].bottleneck;
    for (std::size_t i = 0; i < loads.size(); ++i) {
        const FlightProbe &p = probes[i + 1];
        // The bottleneck analysis needs a populated trace; take it
        // from the loaded runs (the light run may see no slow
        // requests at all).
        result.bottleneck = p.bottleneck;
        if (p.drop_rate < 0.01 && p.completed > 0)
            result.max_krps = loads[i];
        else
            break;
    }
    return result;
}

void
run(BenchContext &ctx)
{
    ctx.seed(0xbe0c4);
    ctx.config("staff_read_rate", 500.0);

    std::vector<std::function<FlightProbe()>> scenarios;
    scenarios.push_back([] {
        return probe(ThreadingModel::Simple, 0.3, sim::msToTicks(120));
    });
    for (double krps : kLoadsSimple)
        scenarios.push_back([krps] {
            return probe(ThreadingModel::Simple, krps,
                         sim::msToTicks(60));
        });
    scenarios.push_back([] {
        return probe(ThreadingModel::Optimized, 0.3,
                     sim::msToTicks(120));
    });
    for (double krps : kLoadsOpt)
        scenarios.push_back([krps] {
            return probe(ThreadingModel::Optimized, krps,
                         sim::msToTicks(60));
        });
    const std::vector<FlightProbe> probes =
        ctx.runner().run(std::move(scenarios));

    const std::size_t opt_base = 1 + kLoadsSimple.size();
    const ModelResult simple = aggregate(
        std::vector<FlightProbe>(probes.begin(),
                                 probes.begin() + opt_base),
        kLoadsSimple);
    const ModelResult opt = aggregate(
        std::vector<FlightProbe>(probes.begin() + opt_base, probes.end()),
        kLoadsOpt);

    tableHeader("Table 4: Flight Registration service, threading models",
                "model      paper: Krps  p50   p90   p99  | measured: "
                "Krps   p50    p90    p99");

    std::printf("%-10s %10.1f %5.1f %5.1f %5.1f | %13.1f %6.1f %6.1f "
                "%6.1f\n",
                "Simple", 2.7, 13.3, 20.2, 23.8, simple.max_krps,
                simple.p50, simple.p90, simple.p99);
    std::printf("%-10s %10.1f %5.1f %5.1f %5.1f | %13.1f %6.1f %6.1f "
                "%6.1f\n",
                "Optimized", 48.0, 23.4, 27.3, 33.6, opt.max_krps, opt.p50,
                opt.p90, opt.p99);
    std::printf("tracer bottleneck (both models): %s / %s\n",
                simple.bottleneck.c_str(), opt.bottleneck.c_str());

    ctx.point()
        .tag("model", "Simple")
        .value("max_krps", simple.max_krps)
        .value("p50_us", simple.p50)
        .value("p90_us", simple.p90)
        .value("p99_us", simple.p99);
    ctx.point()
        .tag("model", "Optimized")
        .value("max_krps", opt.max_krps)
        .value("p50_us", opt.p50)
        .value("p90_us", opt.p90)
        .value("p99_us", opt.p99);

    ctx.check("Optimized sustains >=10x the Simple load (paper ~17x)",
              opt.max_krps >= 10.0 * simple.max_krps);
    ctx.check("Simple max load is a few Krps (paper 2.7)",
              simple.max_krps >= 1.0 && simple.max_krps <= 5.0);
    ctx.check("Optimized max load tens of Krps (paper 48)",
              opt.max_krps >= 25.0 && opt.max_krps <= 70.0);
    ctx.check("Simple has the lower latency floor", simple.p50 < opt.p50);
    ctx.check("Simple p50 ~13us band (paper 13.3)",
              simple.p50 > 6.0 && simple.p50 < 26.0);
    ctx.check("tracer blames the Flight service (§5.7)",
              simple.bottleneck == "flight" && opt.bottleneck == "flight");

    ctx.anchor("simple_max_krps", 2.7, simple.max_krps, 0.60);
    ctx.anchor("optimized_max_krps", 48.0, opt.max_krps, 0.40);
}

} // namespace

DAGGER_BENCH_MAIN("table4_flight_threading", run)
