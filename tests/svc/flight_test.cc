/**
 * @file
 * Flight Registration application tests (§5.7): correctness of the
 * 8-tier pipeline, threading-model contrast, bottleneck analysis,
 * store effects.
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "svc/flight.hh"

namespace {

using namespace dagger;
using namespace dagger::svc;
using sim::msToTicks;
using sim::usToTicks;

TEST(FlightApp, LowLoadRegistrationsComplete)
{
    FlightConfig cfg;
    cfg.model = ThreadingModel::Simple;
    cfg.staffReadRate = 0;
    FlightApp app(cfg);
    app.run(/*krps=*/0.5, msToTicks(40));
    EXPECT_GT(app.issued(), 10u);
    EXPECT_EQ(app.completed(), app.issued());
    EXPECT_EQ(app.dropRate(), 0.0);
}

TEST(FlightApp, RegistrationsLandInAirportStore)
{
    FlightConfig cfg;
    cfg.staffReadRate = 0;
    FlightApp app(cfg);
    app.run(0.5, msToTicks(30));
    EXPECT_EQ(app.airportStore().totalStats().sets, app.completed());
}

TEST(FlightApp, SimpleModelLatencyIsTensOfMicroseconds)
{
    FlightConfig cfg;
    cfg.model = ThreadingModel::Simple;
    cfg.staffReadRate = 0;
    FlightApp app(cfg);
    app.run(0.5, msToTicks(60));
    const double p50_us = sim::ticksToUs(app.e2eLatency().percentile(50));
    // Table 4: Simple model median 13.3us; sanity band.
    EXPECT_GT(p50_us, 5.0);
    EXPECT_LT(p50_us, 40.0);
}

TEST(FlightApp, OptimizedAddsLatencyButSurvivesHighLoad)
{
    FlightConfig simple_cfg;
    simple_cfg.model = ThreadingModel::Simple;
    simple_cfg.staffReadRate = 0;
    FlightApp simple(simple_cfg);
    simple.run(/*krps=*/10.0, msToTicks(60));

    FlightConfig opt_cfg;
    opt_cfg.model = ThreadingModel::Optimized;
    opt_cfg.staffReadRate = 0;
    FlightApp opt(opt_cfg);
    opt.run(/*krps=*/10.0, msToTicks(60));

    // At 10 Krps the Simple model (capacity ~3 Krps) loses most
    // requests; Optimized keeps up (Table 4: 2.7 vs 48 Krps).
    EXPECT_GT(simple.dropRate(), 0.4);
    EXPECT_LT(opt.dropRate(), 0.02);
}

TEST(FlightApp, OptimizedLatencyHigherAtLowLoad)
{
    FlightConfig s;
    s.model = ThreadingModel::Simple;
    s.staffReadRate = 0;
    FlightApp simple(s);
    simple.run(0.3, msToTicks(60));

    FlightConfig o;
    o.model = ThreadingModel::Optimized;
    o.staffReadRate = 0;
    FlightApp opt(o);
    opt.run(0.3, msToTicks(60));

    // §5.7: "the latency became larger in this case due to the
    // overhead of inter-thread communication".
    EXPECT_GT(opt.e2eLatency().percentile(50),
              simple.e2eLatency().percentile(50));
}

TEST(FlightApp, TracerIdentifiesFlightAsBottleneck)
{
    FlightConfig cfg;
    cfg.staffReadRate = 0;
    FlightApp app(cfg);
    app.run(1.0, msToTicks(80));
    // §5.7: "Our analysis reveals that the system is bottlenecked by
    // the resource-demanding and long-running Flight service."
    EXPECT_EQ(app.bottleneck().name(), "flight");
    EXPECT_GT(app.tier(FlightTier::Flight).service().count(), 0u);
    EXPECT_GT(app.tier(FlightTier::Checkin).service().count(), 0u);
    EXPECT_GT(app.tier(FlightTier::Passport).service().count(), 0u);
}

TEST(FlightApp, BottleneckIsTheLargestMeanServiceCost)
{
    FlightConfig cfg;
    cfg.staffReadRate = 0;
    cfg.flightCheapFraction = 1.0; // Flight: 4 us every time
    cfg.baggageCost = usToTicks(30);
    FlightApp app(cfg);
    app.run(0.5, msToTicks(20));
    EXPECT_EQ(&app.bottleneck(), &app.tier(FlightTier::Baggage));
    EXPECT_EQ(app.tier(FlightTier::Baggage).service().mean(),
              static_cast<double>(usToTicks(30)));
}

/** The Flight key of passenger @p pid ("%016" PRIx64). */
std::string
passengerKey(std::uint64_t pid)
{
    char key[17];
    std::snprintf(key, sizeof(key), "%016llx",
                  static_cast<unsigned long long>(pid));
    return key;
}

TEST(FlightApp, DataPlaneReachesEveryStore)
{
    for (ThreadingModel model :
         {ThreadingModel::Simple, ThreadingModel::Optimized}) {
        SCOPED_TRACE(model == ThreadingModel::Simple ? "Simple"
                                                     : "Optimized");
        FlightConfig cfg;
        cfg.model = model;
        cfg.staffReadRate = 2000.0;
        FlightApp app(cfg);
        // Setup preloads the whole citizen registry, and its lossy
        // index displaces the same citizens every build.
        EXPECT_EQ(app.citizensStore().totalStats().sets, 200'000u);
        EXPECT_EQ(app.citizensStore().totalStats().indexEvictions, 80'180u);
        // Passengers 1..5 are registered up front, so a staff read of
        // those keys always hits.
        for (std::uint64_t pid = 1; pid <= 5; ++pid)
            app.airportStore().partition(0).set(passengerKey(pid),
                                                "registered");
        const app::MicaStats airport0 = app.airportStore().totalStats();

        app.run(0.5, msToTicks(60));
        ASSERT_GT(app.completed(), 10u);
        EXPECT_EQ(app.completed(), app.issued());

        // One passport lookup per registration, keyed by its passenger.
        // It hits exactly when the Citizens cache's lossy index still
        // holds that citizen (the preload displaces some).
        const app::MicaStats citizens = app.citizensStore().totalStats();
        EXPECT_EQ(citizens.gets, app.completed());
        std::uint64_t held = 0;
        for (std::uint64_t pid = 1; pid <= app.completed(); ++pid)
            held += app.citizensStore().partition(0).get(
                        passengerKey(pid)).has_value();
        EXPECT_EQ(citizens.getHits, held);
        EXPECT_GT(held, 0u);
        // Every registration lands in the Airport store.
        const app::MicaStats airport = app.airportStore().totalStats();
        EXPECT_EQ(airport.sets - airport0.sets, app.completed());
        // Staff reads draw over the whole citizen id space: most miss
        // the few registered passengers, so they reach far more keys
        // than 1..5.
        EXPECT_EQ(airport.gets, app.staffReadsCompleted());
        ASSERT_GT(airport.gets, 50u);
        EXPECT_GT(airport.gets - airport.getHits, airport.gets / 2);
    }
}

TEST(FlightApp, StaffFrontendReadsConcurrently)
{
    FlightConfig cfg;
    cfg.model = ThreadingModel::Optimized;
    cfg.staffReadRate = 2000.0;
    FlightApp app(cfg);
    app.run(1.0, msToTicks(50));
    EXPECT_GT(app.staffReadsCompleted(), 20u);
    EXPECT_GT(app.completed(), 0u);
}

} // namespace
