/**
 * @file
 * Open-loop traffic generation at million-client scale.
 *
 * The figure benches drive closed-loop sweeps: one generator, one
 * arrival process, load stops the moment the simulated service backs
 * up.  Real microservice front-ends face *open-loop* load — millions
 * of independent clients that keep arriving regardless of service
 * backlog, which is the regime that produces retry storms and is the
 * only honest way to score p99/p999 SLOs under overload.
 *
 * Simulating millions of client actors directly would cost O(clients)
 * memory and events.  OpenLoopGen instead folds each tenant's client
 * population into a small number of *cohort actors*: one actor owns a
 * cohort's merged Poisson arrival process (the superposition of its
 * clients' independent Poisson streams is itself Poisson at the
 * summed rate), draws the originating client uniformly per arrival,
 * and draws keys from a per-cohort Zipfian KvWorkload.  Memory stays
 * O(cohorts + in-flight), yet arrival statistics — including which of
 * the 2^20 clients issued each call — match the naive actor-per-client
 * construction.
 *
 * Every cohort self-schedules on the one EventQueue passed at
 * construction and draws from its own seeded stream, so the generated
 * trace is deterministic for a given seed regardless of --jobs.
 */

#ifndef DAGGER_APP_OPEN_LOOP_HH
#define DAGGER_APP_OPEN_LOOP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "app/workload.hh"
#include "sim/check.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/time.hh"

namespace dagger::app {

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

/** One tenant: a client population and its traffic mix. */
struct TenantSpec
{
    std::string name = "tenant";
    std::uint64_t clients = 1'000'000; ///< simulated client population
    unsigned cohorts = 64;             ///< actors carrying that population
    double perClientRps = 0.5;         ///< peak per-client request rate
    double getRatio = 1.0;             ///< GET (read) fraction of the mix
    std::uint64_t keySpace = 100'000;  ///< Zipf key-space size
    double zipfTheta = 0.99;           ///< Zipf skew (§5.6)
    DatasetShape shape = kTiny;        ///< key/value shape for KvOps
    DiurnalCurve diurnal;              ///< load curve (flat by default)
};

/** One generated arrival. */
struct OpenLoopCall
{
    unsigned tenant = 0;
    unsigned cohort = 0;      ///< global cohort index
    std::uint64_t client = 0; ///< client index within the tenant
    KvOp op;                  ///< Zipf-keyed operation (keyIndex set)
};

/** The cohort-actor open-loop generator. */
class OpenLoopGen
{
  public:
    using IssueFn = std::function<void(const OpenLoopCall &)>;

    OpenLoopGen(sim::EventQueue &eq, std::uint64_t seed)
        : _eq(eq), _seed(seed)
    {}

    OpenLoopGen(const OpenLoopGen &) = delete;
    OpenLoopGen &operator=(const OpenLoopGen &) = delete;

    /** Register a tenant; returns its index.  Call before start(). */
    unsigned addTenant(const TenantSpec &spec);

    /**
     * Arm every cohort actor.  Arrivals invoke @p issue until the
     * queue clock reaches @p stop_at; in-flight work is the caller's
     * to drain.  May be called once per generator.
     */
    void start(sim::Tick stop_at, IssueFn issue);

    std::uint64_t issued() const { return _issued; }
    std::size_t cohortCount() const { return _cohorts.size(); }
    std::uint64_t clientCount() const;
    const TenantSpec &tenant(unsigned t) const { return _tenants.at(t); }

    /** Peak offered load of one tenant (requests/s, diurnal high). */
    double
    peakRps(unsigned t) const
    {
        const TenantSpec &spec = _tenants.at(t);
        return static_cast<double>(spec.clients) * spec.perClientRps *
               spec.diurnal.high;
    }

  private:
    /**
     * One cohort actor: the merged Poisson arrival process of
     * clientCount clients plus their key-popularity stream.  This —
     * not a per-client record — is the whole per-client memory story.
     */
    struct Cohort
    {
        Cohort(unsigned tenant_idx, std::uint64_t base, std::uint64_t count,
               const TenantSpec &spec, std::uint64_t seed)
            : tenant(tenant_idx), clientBase(base), clientCount(count),
              rng(seed),
              work(spec.keySpace, spec.zipfTheta, spec.getRatio, spec.shape,
                   seed ^ 0x5a5a5a5a5a5a5a5aull)
        {}

        unsigned tenant;
        std::uint64_t clientBase;
        std::uint64_t clientCount;
        sim::Rng rng;
        KvWorkload work;
    };

    void armCohort(std::size_t idx);
    void onArrival(std::size_t idx);

    sim::EventQueue &_eq;
    std::uint64_t _seed;
    std::vector<TenantSpec> _tenants;
    std::vector<std::unique_ptr<Cohort>> _cohorts;
    IssueFn _issue;
    sim::Tick _stopAt = 0;
    bool _started = false;
    std::uint64_t _issued = 0;
};

} // namespace dagger::app

#endif // DAGGER_APP_OPEN_LOOP_HH
