/**
 * @file
 * OpenLoopGen tests: cohort-actor compression of million-client
 * populations, same-seed determinism, diurnal shaping, the GET/SET
 * mix, the pinned arrival stream every storm golden rests on, and the
 * rejection of bad specs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/event_queue.hh"
#include "svc/storm.hh"

namespace {

using namespace dagger;
using namespace dagger::svc;
using sim::msToTicks;

struct Arrival
{
    sim::Tick at;
    std::uint64_t client;
    bool isGet;

    bool operator==(const Arrival &) const = default;
};

/** A storm of @p spec.duration, with its arrivals in issue order. */
std::vector<Arrival>
trace(std::uint64_t seed, const StormSpec &spec, double get_ratio)
{
    sim::EventQueue eq;
    std::vector<Arrival> out;
    OpenLoopGen gen(eq, seed, spec, get_ratio,
                    [&](std::uint64_t client, bool is_get) {
                        out.push_back(Arrival{eq.now(), client, is_get});
                    });
    eq.runUntil(spec.duration);
    return out;
}

TEST(OpenLoopGen, MillionClientsViaCohortActors)
{
    StormSpec spec(20.0 * 1'048'576); // 20 rps per client
    spec.clients = 1'048'576;         // 2^20 simulated clients
    spec.cohorts = 64;
    spec.duration = msToTicks(1);     // ~21k arrivals in 1 ms

    sim::EventQueue eq;
    std::uint64_t max_client = 0;
    std::uint64_t arrivals = 0;
    OpenLoopGen gen(eq, 0x510, spec, 1.0, [&](std::uint64_t client, bool) {
        ++arrivals;
        max_client = std::max(max_client, client);
        EXPECT_LT(client, spec.clients);
    });
    // The memory story: 2^20 clients are carried by 64 actors.
    EXPECT_EQ(gen.cohortCount(), 64u);
    eq.runUntil(spec.duration);

    // ~20971 expected arrivals; Poisson sd ~145.
    EXPECT_GT(arrivals, 20'000u);
    EXPECT_LT(arrivals, 22'000u);
    // Client draws actually span the million-client space.
    EXPECT_GT(max_client, spec.clients / 2);
}

TEST(OpenLoopGen, SameSeedSameTraceDifferentSeedDiffers)
{
    StormSpec spec(50.0 * 100'000);
    spec.clients = 100'000;
    spec.cohorts = 16;
    spec.duration = msToTicks(2);

    const auto a = trace(0xabc, spec, 0.8);
    const auto b = trace(0xabc, spec, 0.8);
    const auto c = trace(0xdef, spec, 0.8);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(OpenLoopGen, DiurnalCurveShapesArrivals)
{
    StormSpec spec(100.0 * 50'000);
    spec.clients = 50'000;
    spec.cohorts = 8;
    spec.duration = msToTicks(2);
    spec.diurnal.period = msToTicks(2);
    spec.diurnal.low = 0.2;
    spec.diurnal.high = 1.0;

    // Quarters 1+4 straddle the trough (t=0), quarters 2+3 the peak.
    const auto arr = trace(0xd1, spec, 1.0);
    std::uint64_t trough = 0, peak = 0;
    for (const Arrival &a : arr) {
        const sim::Tick q = msToTicks(2) / 4;
        if (a.at < q || a.at >= 3 * q)
            ++trough;
        else
            ++peak;
    }
    ASSERT_GT(arr.size(), 1000u);
    // Raised cosine: the peak half carries several times the trough.
    EXPECT_GT(peak, 2 * trough);
}

TEST(OpenLoopGen, GetRatioSetsTheMix)
{
    StormSpec spec(200.0 * 10'000);
    spec.clients = 10'000;
    spec.cohorts = 4;
    spec.duration = msToTicks(1);

    for (const double ratio : {0.0, 1.0}) {
        const auto arr = trace(0x3e7, spec, ratio);
        ASSERT_GT(arr.size(), 500u);
        for (const Arrival &a : arr)
            ASSERT_EQ(a.isGet, ratio == 1.0);
    }
}

TEST(OpenLoopGen, StreamMatchesParent)
{
    // Every storm golden (slo_storm, perfbench flight_openloop) rests
    // on this stream.  The digest was taken from the multi-tenant
    // generator of commit 47bcbb3, driven as svc::startStorm drove it
    // there.  A changed seed, stream or draw order moves it; rate
    // arithmetic reordered by an ulp rarely moves a whole tick.
    StormSpec spec(2'000'000.0);
    spec.clients = 200'003; // not a multiple of cohorts: extra clients
    spec.cohorts = 16;
    spec.duration = msToTicks(5);
    spec.diurnal.period = msToTicks(4);
    spec.diurnal.low = 0.3;
    spec.diurnal.high = 1.0;

    const auto arr = trace(0x5eed, spec, 0.4);
    ASSERT_GE(arr.size(), 5000u);
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto fold = [&](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ull;
    };
    for (std::size_t i = 0; i < 5000; ++i) {
        fold(arr[i].at);
        fold(arr[i].client);
        fold(arr[i].isGet);
    }
    EXPECT_EQ(h, 0x76a530a1599595b2ull);
}

TEST(OpenLoopGenDeath, RejectsBadSpecs)
{
    const auto start = [](const StormSpec &spec) {
        sim::EventQueue eq;
        OpenLoopGen gen(eq, 1, spec, 1.0, [](std::uint64_t, bool) {});
    };
    StormSpec spec(1000.0);
    spec.clients = 4;
    spec.cohorts = 8;
    EXPECT_DEATH(start(spec), "more cohorts than clients");
    spec.cohorts = 4;
    spec.offeredRps = 0.0;
    EXPECT_DEATH(start(spec), "offered load must be positive");
    spec.offeredRps = 1000.0;
    spec.diurnal = {msToTicks(1), /*low=*/0.0, /*high=*/1.0};
    EXPECT_DEATH(start(spec), "diurnal trough");
}

} // namespace
