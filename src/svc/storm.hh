/**
 * @file
 * The one-tenant open-loop storm (app::OpenLoopGen) that drives both
 * the Flight Registration and the Social Network graphs.
 */

#ifndef DAGGER_SVC_STORM_HH
#define DAGGER_SVC_STORM_HH

#include <memory>

#include "app/open_loop.hh"
#include "sim/logging.hh"

namespace dagger::svc {

/** Storm parameters every service shares. */
struct StormSpec
{
    explicit StormSpec(double rps) : offeredRps(rps) {}

    std::uint64_t clients = 1'048'576; ///< simulated client population
    unsigned cohorts = 64;             ///< actors carrying it
    double offeredRps;                 ///< aggregate peak arrival rate
    sim::Tick duration = sim::msToTicks(200);
    sim::Tick drain = sim::msToTicks(50);
    app::DiurnalCurve diurnal;         ///< flat by default
};

/**
 * Start a one-tenant storm of @p spec, seeded from the service's
 * @p seed: arrivals call @p issue until @p stop_at.
 */
inline std::unique_ptr<app::OpenLoopGen>
startStorm(sim::EventQueue &eq, std::uint64_t seed, const StormSpec &spec,
           const char *tenant_name, double get_ratio, sim::Tick stop_at,
           app::OpenLoopGen::IssueFn issue)
{
    dagger_assert(spec.offeredRps > 0, "offered load must be positive");
    auto gen = std::make_unique<app::OpenLoopGen>(eq, seed ^ 0x73746f726dull);
    app::TenantSpec tenant;
    tenant.name = tenant_name;
    tenant.clients = spec.clients;
    tenant.cohorts = spec.cohorts;
    tenant.perClientRps =
        spec.offeredRps / static_cast<double>(spec.clients);
    tenant.getRatio = get_ratio;
    tenant.diurnal = spec.diurnal;
    // No service keys its requests by the Zipf draw: keep the unused
    // per-cohort key machinery tiny (zeta init is O(keySpace)).
    tenant.keySpace = 1024;
    gen->addTenant(tenant);
    gen->start(stop_at, std::move(issue));
    return gen;
}

} // namespace dagger::svc

#endif // DAGGER_SVC_STORM_HH
