/**
 * @file
 * Simulator self-benchmark: raw event-engine throughput.
 *
 * Unlike every other bench in this directory, the quantity under test
 * here is the *host* cost of the DES engine itself (docs/PERF.md), not
 * a simulated latency or rate.  Two workload families:
 *
 *  - storm: a synthetic schedule/dispatch storm — a fixed population
 *    of self-rescheduling events drawing (delay, priority) from a
 *    seeded Rng, 3:1 near-future (current frame) vs far-future (later
 *    frames) — that isolates the scheduler + event-pool hot path from
 *    any model code.
 *    This is the scenario whose seed-engine baseline is recorded in
 *    docs/PERF.md; the acceptance bar is >= 2x events/sec over it.
 *
 *  - echo fleets: the micro RPC echo rig at several fleet sizes, so
 *    the reported events/sec includes real model callbacks (NIC
 *    pipeline, CCI-P channels, rings) rather than empty closures.
 *
 * Simulated results stay deterministic at any --jobs count; only the
 * wall_ms / events_per_sec fields vary with the host.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/time.hh"

namespace {

using dagger::bench::BenchContext;
using dagger::bench::EchoRig;
using dagger::bench::WallTimer;
using dagger::sim::EventQueue;
using dagger::sim::Tick;

constexpr std::uint64_t kStormSeed = 0x570a11;
constexpr unsigned kStormPopulation = 32768;
constexpr std::uint64_t kStormTarget = 3'000'000;

/** Payload-sweep sizes: one frame up to a 342-frame (16 KB) message. */
constexpr std::size_t kPayloadSweep[] = {64, 256, 1024, 4096, 16384};

/** One scenario's measurement. */
struct PerfResult
{
    std::string scenario;
    unsigned threads = 0;
    std::uint64_t events = 0;
    std::uint64_t finalTick = 0;
    double wallSec = 0;
    double mrps = 0;
    std::size_t payloadBytes = 0; ///< payload-sweep rows only
    EventQueue::EngineStats stats;
};

/**
 * The schedule/dispatch storm.  Keep the arming pattern and the
 * (delay, priority) draw formulas in sync with the seed-engine
 * baseline recorded in docs/PERF.md, or the 2x comparison is
 * meaningless.
 */
struct Storm
{
    EventQueue eq;
    dagger::sim::Rng rng{kStormSeed};
    std::uint64_t target = kStormTarget;

    void
    arm(unsigned population)
    {
        for (unsigned c = 0; c < population; ++c)
            eq.schedule(c % 1024, [this] { step(); });
    }

    void
    step()
    {
        if (eq.executed() >= target)
            return;
        const std::uint64_t r = rng.next64();
        dagger::sim::TickDelta d;
        if ((r & 3) != 0) // 3:1 near-future vs far-future delays
            d = 1 + (r >> 2) % dagger::sim::usToTicks(8);
        else
            d = dagger::sim::usToTicks(16) +
                (r >> 2) % dagger::sim::usToTicks(184);
        const auto prio =
            static_cast<dagger::sim::Priority>(((r >> 32) % 3) * 100);
        auto next = [this] { step(); };
        eq.schedule(d, std::move(next), prio);
    }
};

PerfResult
runStorm()
{
    PerfResult res;
    res.scenario = "storm";
    Storm s;
    s.arm(kStormPopulation);
    WallTimer timer;
    s.eq.runAll();
    res.wallSec = timer.seconds();
    res.events = s.eq.executed();
    res.finalTick = s.eq.now();
    res.stats = s.eq.stats();
    return res;
}

PerfResult
runEcho(unsigned threads)
{
    PerfResult res;
    res.scenario = "echo";
    res.threads = threads;
    EchoRig::Options opt;
    opt.threads = threads;
    EchoRig rig(opt);
    WallTimer timer;
    const dagger::bench::Point p = rig.saturate();
    res.wallSec = timer.seconds();
    res.events = rig.system().eq().executed();
    res.finalTick = rig.system().eq().now();
    res.stats = rig.system().eq().stats();
    res.mrps = p.mrps;
    return res;
}

/**
 * Payload-size sweep: the echo rig at one payload size, measuring the
 * host cost of moving RPC bytes through rings, NIC, and switch.  Large
 * payloads span many 64 B frames (16 KB = 342), so this is the row
 * family that exposes per-frame byte copies on the data path; rings
 * are widened so a 342-frame message never outsizes its TX ring.
 */
PerfResult
runPayloadEcho(std::size_t payload)
{
    PerfResult res;
    res.scenario = "payload";
    res.threads = 2;
    res.payloadBytes = payload;
    EchoRig::Options opt;
    opt.threads = 2;
    opt.payload = payload;
    opt.txRingEntries = 2048;
    opt.rxRingEntries = 2048;
    EchoRig rig(opt);
    WallTimer timer;
    const dagger::bench::Point p = rig.saturate(
        8, dagger::sim::msToTicks(1), dagger::sim::msToTicks(5));
    res.wallSec = timer.seconds();
    res.events = rig.system().eventsExecuted();
    res.finalTick = rig.system().now();
    res.stats = rig.system().engineStats();
    res.mrps = p.mrps;
    return res;
}

double
eventsPerSec(const PerfResult &r)
{
    return r.wallSec <= 0 ? 0.0
                          : static_cast<double>(r.events) / r.wallSec;
}

double
poolHitRate(const EventQueue::EngineStats &s)
{
    const double total =
        static_cast<double>(s.poolHits + s.poolMisses);
    return total == 0 ? 0.0 : static_cast<double>(s.poolHits) / total;
}

void
run(BenchContext &ctx)
{
    ctx.seed(kStormSeed);
    ctx.config("storm_population", static_cast<double>(kStormPopulation));
    ctx.config("storm_target_events", static_cast<double>(kStormTarget));
    ctx.config("echo_fleets", "1,2,4");
    ctx.config("payload_sweep", "64,256,1024,4096,16384");
    ctx.config("closure_inline_bytes",
               static_cast<double>(dagger::sim::EventClosure::kInlineBytes));
    ctx.config("wheel_buckets",
               static_cast<double>(EventQueue::kWheelBuckets));
    ctx.config("wheel_bucket_ticks",
               static_cast<double>(Tick{1} << EventQueue::kBucketBits));
    ctx.config("frames", static_cast<double>(EventQueue::kFrames));
    ctx.config("frame_ticks",
               static_cast<double>(Tick{1} << EventQueue::kFrameShift));

    std::vector<std::function<PerfResult()>> scenarios;
    scenarios.emplace_back(runStorm);
    for (unsigned t : {1u, 2u, 4u})
        scenarios.emplace_back([t] { return runEcho(t); });
    // Payload rows ride at the end: the positional checks below index
    // into the fixed prefix of this list.
    for (std::size_t bytes : kPayloadSweep)
        scenarios.emplace_back([bytes] { return runPayloadEcho(bytes); });
    const std::vector<PerfResult> results =
        ctx.runner().run(std::move(scenarios));

    dagger::bench::tableHeader(
        "Simulator event-engine throughput",
        "scenario       threads  events       events/sec    wall-ms");
    for (const PerfResult &r : results)
        std::printf("%-13s  %6u   %9llu   %10.0f   %8.1f\n",
                    r.scenario.c_str(), r.threads,
                    static_cast<unsigned long long>(r.events),
                    eventsPerSec(r), r.wallSec * 1e3);

    for (const PerfResult &r : results) {
        auto &pt = ctx.point()
                       .tag("scenario", r.scenario)
                       .value("threads", r.threads)
                       .value("events", static_cast<double>(r.events))
                       .value("final_tick", static_cast<double>(r.finalTick))
                       .value("events_per_sec", eventsPerSec(r))
                       .value("wall_ms", r.wallSec * 1e3)
                       .value("pool_hit_rate", poolHitRate(r.stats))
                       .value("wheel_admits",
                              static_cast<double>(r.stats.wheelAdmits))
                       .value("frame_admits",
                              static_cast<double>(r.stats.frameAdmits))
                       .value("heap_admits",
                              static_cast<double>(r.stats.heapAdmits))
                       .value("max_pending",
                              static_cast<double>(r.stats.maxPending));
        if (r.scenario == "echo")
            pt.value("mrps", r.mrps);
        if (r.scenario == "payload") {
            pt.value("payload_bytes",
                     static_cast<double>(r.payloadBytes));
            pt.value("mrps", r.mrps);
        }
    }

    const PerfResult &storm = results.front();
    ctx.check("storm executes the full event target",
              storm.events >= kStormTarget);
    ctx.check("storm steady state runs off the event pool (hit rate >= 0.98)",
              poolHitRate(storm.stats) >= 0.98);
    ctx.check("storm near-future admits dominate (wheel > frames + far heap)",
              storm.stats.wheelAdmits >
                  storm.stats.frameAdmits + storm.stats.heapAdmits);
    bool positive = true;
    for (const PerfResult &r : results)
        positive = positive && eventsPerSec(r) > 0;
    ctx.check("every scenario reports a positive event rate", positive);
    // More fleet => more simulated work in the same measured window;
    // the event count is a simulated quantity, so this is deterministic.
    const PerfResult &echo1 = results[1];
    const PerfResult &echo4 = results[3];
    ctx.check("echo fleet event count scales with threads",
              echo4.events > echo1.events);
    bool sweepDelivers = true;
    for (const PerfResult &r : results)
        if (r.scenario == "payload")
            sweepDelivers = sweepDelivers && r.mrps > 0;
    ctx.check("every payload-sweep point sustains a positive RPC rate",
              sweepDelivers);
}

} // namespace

DAGGER_BENCH_MAIN("perf_sim_throughput", run)
