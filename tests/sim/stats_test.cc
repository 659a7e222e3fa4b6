/**
 * @file
 * Histogram / counter tests: percentile accuracy bounds, merge, reset.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/time.hh"

namespace {

using dagger::sim::Counter;
using dagger::sim::Histogram;

TEST(Counter, IncrementsAndResets)
{
    Counter c("rpcs");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    EXPECT_EQ(c.name(), "rpcs");
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, EmptyHistogramReturnsZeroes)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleValue)
{
    Histogram h;
    h.record(1234);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 1234u);
    EXPECT_EQ(h.max(), 1234u);
    // One sample: every percentile is (approximately) that sample.
    EXPECT_NEAR(h.percentile(50), 1234, 1234 * 0.04);
    EXPECT_NEAR(h.percentile(99), 1234, 1234 * 0.04);
}

TEST(Histogram, SmallValuesAreExact)
{
    Histogram h;
    for (std::uint64_t v = 0; v < 32; ++v)
        h.record(v);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 31u);
    EXPECT_EQ(h.percentile(100), 31u);
    // Values below kSubBuckets land in exact unit buckets.
    EXPECT_EQ(h.percentile(50), 15u);
}

TEST(Histogram, PercentileRelativeErrorBounded)
{
    Histogram h;
    dagger::sim::Rng r(5);
    std::vector<std::uint64_t> vals;
    for (int i = 0; i < 100000; ++i) {
        auto v = 1000 + r.range(9'000'000);
        vals.push_back(v);
        h.record(v);
    }
    std::sort(vals.begin(), vals.end());
    for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
        auto exact = vals[static_cast<std::size_t>(
            p / 100.0 * (vals.size() - 1))];
        auto approx = h.percentile(p);
        EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                    static_cast<double>(exact) * 0.05)
            << "p=" << p;
    }
}

TEST(Histogram, MeanIsExact)
{
    Histogram h;
    h.record(10);
    h.record(20);
    h.record(60);
    EXPECT_DOUBLE_EQ(h.mean(), 30.0);
}

TEST(Histogram, RecordManyMatchesLoop)
{
    Histogram a, b;
    a.recordMany(777, 1000);
    for (int i = 0; i < 1000; ++i)
        b.record(777);
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.percentile(50), b.percentile(50));
    EXPECT_DOUBLE_EQ(a.mean(), b.mean());
}

TEST(Histogram, MergeCombines)
{
    Histogram a, b;
    for (int i = 0; i < 100; ++i)
        a.record(100);
    for (int i = 0; i < 100; ++i)
        b.record(10000);
    a.merge(b);
    EXPECT_EQ(a.count(), 200u);
    EXPECT_EQ(a.min(), 100u);
    EXPECT_LE(a.percentile(25), 110u);
    EXPECT_GT(a.percentile(75), 9000u);
}

TEST(Histogram, MergeAcrossOctaveRangesMatchesDirectRecording)
{
    // Populations whose bucket arrays span very different octaves:
    // merging must behave exactly like recording everything into one
    // histogram, including lazy bucket growth in either direction.
    Histogram small, large, both;
    dagger::sim::Rng r(11);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t lo = 1 + r.range(30);          // unit buckets
        const std::uint64_t hi = 1'000'000 + r.range(60'000'000);
        small.record(lo);
        large.record(hi);
        both.record(lo);
        both.record(hi);
    }

    // Merge the wide-range histogram into the narrow one...
    Histogram merged_up = small;
    merged_up.merge(large);
    // ...and the narrow one into the wide one.
    Histogram merged_down = large;
    merged_down.merge(small);

    for (Histogram *m : {&merged_up, &merged_down}) {
        EXPECT_EQ(m->count(), both.count());
        EXPECT_EQ(m->min(), both.min());
        EXPECT_EQ(m->max(), both.max());
        EXPECT_DOUBLE_EQ(m->mean(), both.mean());
        for (double p : {1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9})
            EXPECT_EQ(m->percentile(p), both.percentile(p)) << "p=" << p;
    }

    // The bimodal split sits at 50%: the median's octave depends on
    // which side of the boundary the rank falls, and the quartiles
    // must come from the respective populations.
    EXPECT_LE(merged_up.percentile(25), 31u);
    EXPECT_GE(merged_up.percentile(75), 1'000'000u);
}

TEST(Histogram, MergeIntoEmptyAndFromEmpty)
{
    Histogram empty, filled;
    filled.record(42);
    filled.record(7);

    Histogram a;
    a.merge(filled); // into empty
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 7u);
    EXPECT_EQ(a.max(), 42u);

    Histogram b = filled;
    b.merge(empty); // from empty: a no-op
    EXPECT_EQ(b.count(), 2u);
    EXPECT_EQ(b.percentile(50), filled.percentile(50));
    EXPECT_DOUBLE_EQ(b.mean(), filled.mean());
}

TEST(Histogram, ResetForgetsEverything)
{
    Histogram h;
    h.record(5);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(99), 0u);
    h.record(7);
    EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, SummaryUsFormats)
{
    Histogram h;
    h.record(dagger::sim::usToTicks(2.0));
    auto s = h.summaryUs();
    EXPECT_NE(s.find("p50="), std::string::npos);
    EXPECT_NE(s.find("p99="), std::string::npos);
}

// --- million-sample tail-quantile accuracy -------------------------
//
// The log-bucketed layout (32 sub-buckets per octave) bounds the
// relative quantile error by one sub-bucket width: 1/32 ~ 3.1%.  The
// slo_storm bench scores p999 against SLO thresholds at million-client
// scale, so pin that accuracy on known distributions at 1e6 samples.

constexpr std::size_t kMillion = 1'000'000;
constexpr double kQuantileTol = 0.05; // sub-bucket bound + sampling noise

TEST(Histogram, P999UniformMillionSamples)
{
    dagger::sim::Rng rng(0x51a75u);
    Histogram h;
    for (std::size_t i = 0; i < kMillion; ++i)
        h.record(1 + rng.range(kMillion));
    const double p999 = static_cast<double>(h.percentile(99.9));
    const double expect = 0.999 * kMillion;
    EXPECT_NEAR(p999, expect, expect * kQuantileTol);
    // And the far tail: p50 of a uniform draw.
    const double p50 = static_cast<double>(h.percentile(50));
    EXPECT_NEAR(p50, 0.5 * kMillion, 0.5 * kMillion * kQuantileTol);
}

TEST(Histogram, P999ExponentialMillionSamples)
{
    // Exponential(mean = 1000): quantile(q) = -mean * ln(1 - q).
    dagger::sim::Rng rng(0xe4b0u);
    Histogram h;
    const double mean = 1000.0;
    for (std::size_t i = 0; i < kMillion; ++i) {
        const double u = rng.uniform();
        h.record(static_cast<std::uint64_t>(-mean * std::log1p(-u)) + 1);
    }
    const double expect999 = -mean * std::log(1.0 - 0.999); // ~6907.8
    const double p999 = static_cast<double>(h.percentile(99.9));
    EXPECT_NEAR(p999, expect999, expect999 * kQuantileTol);
    const double expect99 = -mean * std::log(1.0 - 0.99); // ~4605.2
    const double p99 = static_cast<double>(h.percentile(99));
    EXPECT_NEAR(p99, expect99, expect99 * kQuantileTol);
}

TEST(Histogram, P999BimodalMillionSamples)
{
    // The Flight workload shape: 99.5% cheap (~10us), 0.5% expensive
    // (~41ms).  p99 sits in the cheap mode, p999 in the expensive one
    // — the whole point of tracking p999 separately in slo_storm.
    dagger::sim::Rng rng(0xb1b0u);
    Histogram h;
    const std::uint64_t cheap = dagger::sim::usToTicks(10.0);
    const std::uint64_t expensive = dagger::sim::msToTicks(41);
    for (std::size_t i = 0; i < kMillion; ++i)
        h.record(rng.chance(0.005) ? expensive : cheap);
    const double p99 = static_cast<double>(h.percentile(99));
    const double p999 = static_cast<double>(h.percentile(99.9));
    EXPECT_NEAR(p99, static_cast<double>(cheap),
                static_cast<double>(cheap) * kQuantileTol);
    EXPECT_NEAR(p999, static_cast<double>(expensive),
                static_cast<double>(expensive) * kQuantileTol);
}

TEST(Histogram, MergeThenQuantileIsExactAcrossShards)
{
    // Per-part histograms (one per tier tracer, one per --jobs
    // scenario) are merged at report time.  Bucket counts are associative, so merge-then-quantile
    // must equal the quantile of one histogram fed every sample —
    // exactly, not approximately.
    dagger::sim::Rng rng(0x5a4du);
    Histogram all;
    Histogram shard[8];
    for (std::size_t i = 0; i < kMillion; ++i) {
        const double u = rng.uniform();
        const auto v =
            static_cast<std::uint64_t>(-1000.0 * std::log1p(-u)) + 1;
        all.record(v);
        shard[i % 8].record(v);
    }
    Histogram merged;
    for (const Histogram &s : shard)
        merged.merge(s);
    EXPECT_EQ(merged.count(), all.count());
    for (double q : {50.0, 90.0, 99.0, 99.9, 99.99})
        EXPECT_EQ(merged.percentile(q), all.percentile(q)) << "q=" << q;
    EXPECT_EQ(merged.min(), all.min());
    EXPECT_EQ(merged.max(), all.max());
}

TEST(Histogram, QuantileThenMergeUnderestimatesTheTail)
{
    // The broken alternative — averaging per-shard p999s — is NOT the
    // merged p999 on a skewed distribution: rare expensive samples
    // land on few shards, so most per-shard p999s sit in the cheap
    // mode and drag the average far below the true tail.  This is why
    // Histogram::merge exists and report code never averages quantiles.
    // A hot tenant pinned to shard 0 supplies every expensive sample
    // (3.2% of its stream; 0.4% globally, so the true p999 is in the
    // expensive mode).  Shards 1-7 see only cheap traffic.
    dagger::sim::Rng rng(0x7a11u);
    Histogram shard[8];
    const std::uint64_t cheap = 10, expensive = 50'000;
    for (std::size_t i = 0; i < kMillion; ++i) {
        const std::size_t s = i % 8;
        shard[s].record(s == 0 && rng.chance(0.032) ? expensive : cheap);
    }
    Histogram merged;
    double quantile_then_merge = 0.0;
    for (const Histogram &s : shard) {
        merged.merge(s);
        quantile_then_merge += static_cast<double>(s.percentile(99.9)) / 8;
    }
    const double true_p999 = static_cast<double>(merged.percentile(99.9));
    EXPECT_GT(true_p999, static_cast<double>(expensive) * 0.9);
    // Seven of eight per-shard p999s sit in the cheap mode and drag
    // the average to roughly expensive/8.
    EXPECT_LT(quantile_then_merge, true_p999 * 0.2);
}

TEST(Time, ConversionRoundTrips)
{
    using namespace dagger::sim;
    EXPECT_EQ(nsToTicks(1.0), kPsPerNs);
    EXPECT_EQ(usToTicks(2.5), 2500 * kPsPerNs);
    EXPECT_DOUBLE_EQ(ticksToUs(usToTicks(7.0)), 7.0);
    EXPECT_DOUBLE_EQ(ratePerSec(1000, usToTicks(100)), 1e7);
    EXPECT_DOUBLE_EQ(ratePerSec(5, 0), 0.0);
}

} // namespace
