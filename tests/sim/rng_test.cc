/**
 * @file
 * Tests for the deterministic PRNG and the Zipfian generator used by
 * the KVS workloads (paper §5.6: Zipf 0.99 / 0.9999).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <thread>
#include <vector>

#include "sim/rng.hh"

namespace {

using dagger::sim::Rng;
using dagger::sim::ZipfianGenerator;

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next64() == b.next64();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, RangeIsBoundedAndCoversAllValues)
{
    Rng r(9);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 10000; ++i) {
        auto v = r.range(10);
        ASSERT_LT(v, 10u);
        ++seen[v];
    }
    for (int c : seen)
        EXPECT_GT(c, 700); // ~1000 expected each
}

TEST(Rng, BetweenInclusive)
{
    Rng r(11);
    bool lo_seen = false, hi_seen = false;
    for (int i = 0; i < 5000; ++i) {
        auto v = r.between(3, 7);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 7u);
        lo_seen |= v == 3;
        hi_seen |= v == 7;
    }
    EXPECT_TRUE(lo_seen);
    EXPECT_TRUE(hi_seen);
}

TEST(Rng, ExponentialHasRequestedMean)
{
    Rng r(13);
    double sum = 0;
    constexpr int kN = 200000;
    for (int i = 0; i < kN; ++i)
        sum += r.exponential(250.0);
    EXPECT_NEAR(sum / kN, 250.0, 5.0);
}

TEST(Rng, NormalMoments)
{
    Rng r(17);
    double sum = 0, sq = 0;
    constexpr int kN = 200000;
    for (int i = 0; i < kN; ++i) {
        double v = r.normal(10.0, 3.0);
        sum += v;
        sq += v * v;
    }
    double mean = sum / kN;
    double var = sq / kN - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Zipf, SamplesStayInRange)
{
    ZipfianGenerator z(1000, 0.99);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(z.next(), 1000u);
}

TEST(Zipf, SkewConcentratesMassOnHotKeys)
{
    ZipfianGenerator z(100000, 0.99);
    std::uint64_t hot = 0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i)
        hot += z.next() < 100; // top 0.1% of key space
    // With theta=0.99 the head is very hot: expect well over 30%.
    EXPECT_GT(hot, kN * 30 / 100);
}

TEST(Zipf, HigherThetaIsMoreSkewed)
{
    ZipfianGenerator lo(100000, 0.90), hi(100000, 0.9999);
    std::uint64_t hot_lo = 0, hot_hi = 0;
    for (int i = 0; i < 50000; ++i) {
        hot_lo += lo.next() < 10;
        hot_hi += hi.next() < 10;
    }
    EXPECT_GT(hot_hi, hot_lo);
}

TEST(Zipf, ThetaZeroIsNearlyUniform)
{
    ZipfianGenerator z(10, 0.0);
    std::map<std::uint64_t, int> hist;
    for (int i = 0; i < 50000; ++i)
        ++hist[z.next()];
    for (const auto &[k, c] : hist)
        EXPECT_NEAR(c, 5000, 600) << "key " << k;
}

TEST(Zipf, LargeKeySpaceConstructionIsUsable)
{
    // 200M keys as in the MICA dataset; approximate zeta path.
    ZipfianGenerator z(200'000'000ull, 0.99);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(z.next(), 200'000'000ull);
}

/** FNV-1a over the little-endian bytes of the first 100k samples. */
std::uint64_t
zipfDigest(ZipfianGenerator z)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 100'000; ++i) {
        const std::uint64_t s = z.next();
        for (int b = 0; b < 8; ++b) {
            h ^= (s >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

struct ZipfPin
{
    std::uint64_t n;
    double theta;
    std::uint64_t digest;
};

// Digests taken at commit 11ea94b, where every construction summed
// zeta(n, theta) afresh and next() recomputed 1 + 0.5^theta per sample.
// 200M keys take the approximate-zeta path.
constexpr ZipfPin kZipfPins[] = {
    {1'000'000, 0.99, 0xa53c22ab9e389608ull},
    {1'000'000, 0.9999, 0x5d021a053a18edccull},
    {200'000, 0.99, 0x10187614a02d7a61ull},
    {200'000'000, 0.99, 0x8f3b7317a118d0edull},
    {10, 0.0, 0x78d508713ebd20e8ull},
};

TEST(Zipf, StreamsMatchUnmemoizedGenerator)
{
    // Each pin twice in a row: the second construction reads the memo.
    for (const ZipfPin &p : kZipfPins)
        for (int build = 0; build < 2; ++build)
            EXPECT_EQ(zipfDigest(ZipfianGenerator(p.n, p.theta)), p.digest)
                << p.n << " keys, theta " << p.theta << ", build " << build;
}

TEST(Zipf, InterleavedConstructionsKeepTheirStreams)
{
    // A, B, A, C and on: each key space gets its own sum back after
    // other key spaces have replaced it in the memo.
    const ZipfPin &a = kZipfPins[0], &b = kZipfPins[1], &c = kZipfPins[2];
    for (const ZipfPin *p : {&a, &b, &a, &c, &kZipfPins[3], &kZipfPins[4],
                             &b, &a, &c})
        EXPECT_EQ(zipfDigest(ZipfianGenerator(p->n, p->theta)), p->digest)
            << p->n << " keys, theta " << p->theta;
}

TEST(Zipf, ConcurrentConstructionsKeepTheirStreams)
{
    // Four threads, each with its own memo, build the pinned
    // generators at the same time, each pin twice in a row (a miss,
    // then a hit), starting at different pins.
    constexpr std::size_t kPins = std::size(kZipfPins);
    constexpr std::size_t kBuilds = 2 * kPins;
    std::vector<std::vector<std::uint64_t>> got(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([t, &got] {
            for (std::size_t i = 0; i < kBuilds; ++i) {
                const ZipfPin &p = kZipfPins[(i / 2 + t) % kPins];
                got[t].push_back(zipfDigest(ZipfianGenerator(p.n, p.theta)));
            }
        });
    for (std::thread &th : threads)
        th.join();
    for (std::size_t t = 0; t < got.size(); ++t) {
        ASSERT_EQ(got[t].size(), kBuilds);
        for (std::size_t i = 0; i < kBuilds; ++i)
            EXPECT_EQ(got[t][i], kZipfPins[(i / 2 + t) % kPins].digest)
                << "thread " << t << ", build " << i;
    }
}

} // namespace
