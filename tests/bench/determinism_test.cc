/**
 * @file
 * SweepRunner determinism: the parallel scenario runner must return
 * results in input order and produce bit-identical numbers regardless
 * of the job count — the property every bench binary's "tables match
 * at any --jobs" guarantee rests on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "bench/harness.hh"

namespace {

using namespace dagger;
using namespace dagger::bench;

TEST(SweepRunner, ResultsComeBackInInputOrder)
{
    // Later scenarios finish first (reverse-staggered sleeps), so any
    // completion-order bug would scramble the output slots.
    constexpr int kN = 12;
    std::vector<std::function<int()>> scenarios;
    for (int i = 0; i < kN; ++i)
        scenarios.push_back([i] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds((kN - i) * 2));
            return i * 10;
        });
    const std::vector<int> results =
        SweepRunner(4).run(std::move(scenarios));
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kN));
    for (int i = 0; i < kN; ++i)
        EXPECT_EQ(results[i], i * 10);
}

TEST(SweepRunner, EveryScenarioRunsExactlyOnce)
{
    constexpr int kN = 40;
    std::vector<std::atomic<int>> hits(kN);
    std::vector<std::function<int()>> scenarios;
    for (int i = 0; i < kN; ++i)
        scenarios.push_back([i, &hits] { return ++hits[i]; });
    const std::vector<int> results =
        SweepRunner(8).run(std::move(scenarios));
    for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(hits[i].load(), 1);
        EXPECT_EQ(results[i], 1);
    }
}

/** One fig11-style operating point: an isolated EchoRig load step. */
Point
fig11Point(unsigned batch, double load_mrps)
{
    EchoRig::Options opt;
    opt.batch = batch;
    opt.autoBatch = batch == 0;
    if (batch == 0)
        opt.batch = 4;
    opt.threads = 1;
    EchoRig rig(opt);
    return rig.offer(load_mrps, sim::msToTicks(1), sim::msToTicks(2));
}

std::vector<std::function<Point()>>
fig11Scenarios()
{
    std::vector<std::function<Point()>> scenarios;
    for (unsigned batch : {1u, 4u})
        for (double load : {0.5, 2.0, 4.0})
            scenarios.push_back(
                [batch, load] { return fig11Point(batch, load); });
    return scenarios;
}

TEST(SweepRunner, Fig11StyleSweepIsBitIdenticalAcrossJobCounts)
{
    // Each scenario is a self-contained DaggerSystem; a serial run and
    // a 4-way parallel run must agree to the last bit, which is what
    // makes `--jobs N` safe for every bench table.
    const std::vector<Point> serial =
        SweepRunner(1).run(fig11Scenarios());
    const std::vector<Point> parallel =
        SweepRunner(4).run(fig11Scenarios());

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(serial[i].mrps, parallel[i].mrps);
        EXPECT_EQ(serial[i].p50_us, parallel[i].p50_us);
        EXPECT_EQ(serial[i].p99_us, parallel[i].p99_us);
        EXPECT_EQ(serial[i].drops, parallel[i].drops);
    }

    // The rendered JSON points — what lands in BENCH_*.json — must
    // also match byte for byte.
    auto render = [](const std::vector<Point> &pts) {
        BenchPoint p;
        for (const Point &pt : pts)
            p.value("mrps", pt.mrps)
                .value("p50_us", pt.p50_us)
                .value("p99_us", pt.p99_us);
        return p.json();
    };
    EXPECT_EQ(render(serial), render(parallel));
}

TEST(BenchPoint, JsonIsDeterministicAndEscaped)
{
    BenchPoint p;
    p.tag("name", "a\"b\\c").value("x", 1.5).value("n", 3.0);
    EXPECT_EQ(p.json(),
              "{\"name\": \"a\\\"b\\\\c\", \"x\": 1.5, \"n\": 3}");
}

} // namespace
