#include "app/open_loop.hh"

#include <cmath>

namespace dagger::app {

namespace {

/** splitmix64 finalizer: decorrelates per-cohort seed streams. */
std::uint64_t
mixSeed(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

double
DiurnalCurve::at(sim::Tick now) const
{
    if (period == 0)
        return high;
    const double phase = 2.0 * M_PI *
        static_cast<double>(now % period) / static_cast<double>(period);
    return low + (high - low) * 0.5 * (1.0 - std::cos(phase));
}

unsigned
OpenLoopGen::addTenant(const TenantSpec &spec)
{
    dagger_assert(!_started, "addTenant after start");
    dagger_assert(spec.clients > 0, "tenant needs clients");
    dagger_assert(spec.cohorts > 0, "tenant needs cohorts");
    dagger_assert(spec.cohorts <= spec.clients,
                  "more cohorts than clients");
    dagger_assert(spec.perClientRps > 0, "per-client rate must be > 0");
    dagger_assert(spec.diurnal.period == 0 || spec.diurnal.low > 0,
                  "diurnal trough must keep a positive rate");

    const auto tenant_idx = static_cast<unsigned>(_tenants.size());
    _tenants.push_back(spec);

    // Spread the population over the cohorts; the first
    // (clients % cohorts) cohorts carry one extra client.
    const std::uint64_t per = spec.clients / spec.cohorts;
    const std::uint64_t extra = spec.clients % spec.cohorts;
    std::uint64_t base = 0;
    for (unsigned c = 0; c < spec.cohorts; ++c) {
        const std::uint64_t count = per + (c < extra ? 1 : 0);
        const std::uint64_t seed =
            mixSeed(_seed ^ mixSeed((std::uint64_t{tenant_idx} << 32) | c));
        _cohorts.push_back(std::make_unique<Cohort>(tenant_idx, base, count,
                                                    spec, seed));
        base += count;
    }
    return tenant_idx;
}

void
OpenLoopGen::start(sim::Tick stop_at, IssueFn issue)
{
    dagger_assert(!_started, "start called twice");
    dagger_assert(issue, "start needs an issue callback");
    dagger_assert(!_cohorts.empty(), "start with no tenants");
    _started = true;
    _stopAt = stop_at;
    _issue = std::move(issue);
    for (std::size_t c = 0; c < _cohorts.size(); ++c)
        armCohort(c);
}

std::uint64_t
OpenLoopGen::clientCount() const
{
    std::uint64_t n = 0;
    for (const TenantSpec &t : _tenants)
        n += t.clients;
    return n;
}

void
OpenLoopGen::armCohort(std::size_t idx)
{
    if (_eq.now() >= _stopAt)
        return;
    Cohort &c = *_cohorts[idx];
    const TenantSpec &spec = _tenants[c.tenant];
    // The cohort's merged arrival rate at this instant: superposed
    // independent Poisson clients scaled by the diurnal curve.  The
    // gap is resampled per arrival, so the curve is tracked at the
    // cohort's own arrival granularity.
    const double rate = static_cast<double>(c.clientCount) *
        spec.perClientRps * spec.diurnal.at(_eq.now());
    const double mean_gap_us = 1e6 / rate;
    auto fire = [this, idx] { onArrival(idx); };
    _eq.schedule(sim::usToTicks(c.rng.exponential(mean_gap_us)),
                 std::move(fire));
}

void
OpenLoopGen::onArrival(std::size_t idx)
{
    if (_eq.now() >= _stopAt)
        return;
    Cohort &c = *_cohorts[idx];
    OpenLoopCall call;
    call.tenant = c.tenant;
    call.cohort = static_cast<unsigned>(idx);
    call.client = c.clientBase + c.rng.range(c.clientCount);
    call.op = c.work.next();
    ++_issued;
    _issue(call);
    armCohort(idx);
}

} // namespace dagger::app
