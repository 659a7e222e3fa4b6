/**
 * @file
 * The open-loop million-client storm that drives both the Flight
 * Registration and the Social Network graphs.
 *
 * The figure benches drive closed-loop sweeps: load stops the moment
 * the simulated service backs up.  Real microservice front-ends face
 * *open-loop* load — millions of independent clients that keep
 * arriving regardless of service backlog, which is the regime that
 * produces retry storms and is the only honest way to score p99/p999
 * SLOs under overload.
 *
 * Simulating millions of client actors directly would cost O(clients)
 * memory and events.  OpenLoopGen instead folds the client population
 * into a small number of *cohort actors*: one actor owns a cohort's
 * merged Poisson arrival process (the superposition of its clients'
 * independent Poisson streams is itself Poisson at the summed rate)
 * and draws the originating client uniformly per arrival.  Memory
 * stays O(cohorts + in-flight), yet arrival statistics — including
 * which of the 2^20 clients issued each call — match the naive
 * actor-per-client construction.
 */

#ifndef DAGGER_SVC_STORM_HH
#define DAGGER_SVC_STORM_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/time.hh"

namespace dagger::svc {

/**
 * Diurnal load multiplier: a raised-cosine curve between @ref low and
 * @ref high over @ref period.  t=0 sits in the trough, mid-period at
 * the peak.  period == 0 disables the curve (multiplier = high).
 */
struct DiurnalCurve
{
    sim::Tick period = 0;
    double low = 1.0;
    double high = 1.0;

    double at(sim::Tick now) const;
};

/** Storm parameters every service shares. */
struct StormSpec
{
    explicit StormSpec(double rps) : offeredRps(rps) {}

    std::uint64_t clients = 1'048'576; ///< simulated client population
    unsigned cohorts = 64;             ///< actors carrying it
    double offeredRps;                 ///< aggregate peak arrival rate
    sim::Tick duration = sim::msToTicks(200);
    sim::Tick drain = sim::msToTicks(50);
    DiurnalCurve diurnal;              ///< flat by default
};

/**
 * The cohort-actor storm generator.  Construction arms every cohort;
 * arrivals call the issue callback until @ref StormSpec::duration
 * after construction, and in-flight work is the caller's to drain.
 *
 * Stream contract (every service's simulated output rests on it):
 *  - The storm seed is `seed ^ 0x73746f726d`.
 *  - Cohort `c` is seeded with `mix(stormSeed ^ mix(c))`, where `mix`
 *    is one splitmix64 step (`sim::mix64(z + 0x9e3779b97f4a7c15)`).
 *  - Its GET/SET mix stream is seeded
 *    `(cohortSeed ^ 0x5a5a5a5a5a5a5a5a) ^ 0x9e3779b97f4a7c15` and
 *    makes one `uniform() < getRatio` draw per arrival.
 *  - The client draw `range(count)` rides the arrival stream, before
 *    the draw of the next gap.
 *  - A cohort's rate is, in this floating-point order,
 *    `double(count) * (offeredRps / double(clients)) * diurnal.at(now)`.
 *  - The first `clients % cohorts` cohorts carry one extra client.
 *
 * Every cohort self-schedules on the one EventQueue passed at
 * construction, so the trace is deterministic for a given seed
 * regardless of --jobs.
 */
class OpenLoopGen
{
  public:
    /** One arrival: the issuing client and whether it is a GET. */
    using IssueFn = std::function<void(std::uint64_t client, bool is_get)>;

    OpenLoopGen(sim::EventQueue &eq, std::uint64_t seed,
                const StormSpec &spec, double get_ratio, IssueFn issue);

    OpenLoopGen(const OpenLoopGen &) = delete;
    OpenLoopGen &operator=(const OpenLoopGen &) = delete;

    std::size_t cohortCount() const { return _cohorts.size(); }

  private:
    /**
     * One cohort actor: the merged Poisson arrival process of @ref
     * count clients.  This — not a per-client record — is the whole
     * per-client memory story.
     */
    struct Cohort
    {
        std::uint64_t base;
        std::uint64_t count;
        sim::Rng rng; ///< arrival gaps and client draws
        sim::Rng mix; ///< GET/SET draws
    };

    void armCohort(std::size_t idx);
    void onArrival(std::size_t idx);

    sim::EventQueue &_eq;
    double _perClientRps;
    double _getRatio;
    DiurnalCurve _diurnal;
    sim::Tick _stopAt;
    IssueFn _issue;
    std::vector<Cohort> _cohorts;
};

} // namespace dagger::svc

#endif // DAGGER_SVC_STORM_HH
