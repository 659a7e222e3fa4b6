/**
 * @file
 * The 8-tier Flight Registration microservice application of §5.7,
 * run end-to-end over virtualized Dagger NICs, with each tier's
 * service histogram identifying the bottleneck tier and the two
 * threading models compared side by side (Table 4).
 *
 * Build & run:  ./build/examples/flight_checkin
 */

#include <cstdio>

#include "svc/flight.hh"

namespace {

void
runModel(dagger::svc::ThreadingModel model, const char *label, double krps)
{
    using namespace dagger;
    svc::FlightConfig cfg;
    cfg.model = model;
    svc::FlightApp app(cfg);
    app.run(krps, sim::msToTicks(80));

    std::printf("%s threading @ %.1f Krps offered:\n", label, krps);
    std::printf("  completed %llu/%llu (drop rate %.2f%%)\n",
                static_cast<unsigned long long>(app.completed()),
                static_cast<unsigned long long>(app.issued()),
                100.0 * app.dropRate());
    std::printf("  e2e latency: p50=%.1f us p90=%.1f us p99=%.1f us\n",
                sim::ticksToUs(app.e2eLatency().percentile(50)),
                sim::ticksToUs(app.e2eLatency().percentile(90)),
                sim::ticksToUs(app.e2eLatency().percentile(99)));
    std::printf("  bottleneck tier: %s\n", app.bottleneck().name().c_str());
    for (unsigned t = 0; t < svc::kFlightTiers; ++t) {
        svc::Tier &tier = app.tier(static_cast<svc::FlightTier>(t));
        const sim::Histogram &hist = tier.service();
        if (hist.count() == 0)
            continue; // the MICA tiers' KvsServers record no service
        std::printf("    tier %-10s n=%-6llu mean=%.1f us\n",
                    tier.name().c_str(),
                    static_cast<unsigned long long>(hist.count()),
                    hist.mean() / 1e6);
    }
    std::printf("  staff reads served: %llu\n\n",
                static_cast<unsigned long long>(app.staffReadsCompleted()));
}

} // namespace

int
main()
{
    std::printf("Flight Registration service (Fig. 13), 8 tiers over "
                "virtualized Dagger NICs\n\n");
    // The Simple model handles ~2.7 Krps before drops (Table 4);
    // drive both models at a rate the Simple model can still carry.
    runModel(dagger::svc::ThreadingModel::Simple, "Simple", 1.5);
    runModel(dagger::svc::ThreadingModel::Optimized, "Optimized", 1.5);
    // And demonstrate the Optimized model's headroom.
    runModel(dagger::svc::ThreadingModel::Optimized, "Optimized", 30.0);
    return 0;
}
