#include "svc/storm.hh"

#include <cmath>

#include "sim/check.hh"

namespace dagger::svc {

namespace {

/** One splitmix64 step: decorrelates the per-cohort seed streams. */
std::uint64_t
mixSeed(std::uint64_t z)
{
    return sim::mix64(z + 0x9e3779b97f4a7c15ull);
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

OpenLoopGen::OpenLoopGen(sim::EventQueue &eq, std::uint64_t seed,
                         const StormSpec &spec, double get_ratio,
                         IssueFn issue)
    : _eq(eq), _perClientRps(spec.offeredRps /
                             static_cast<double>(spec.clients)),
      _getRatio(get_ratio), _diurnal(spec.diurnal),
      _stopAt(eq.now() + spec.duration), _issue(std::move(issue))
{
    dagger_assert(spec.offeredRps > 0, "offered load must be positive");
    dagger_assert(spec.clients > 0, "storm needs clients");
    dagger_assert(spec.cohorts > 0, "storm needs cohorts");
    dagger_assert(spec.cohorts <= spec.clients, "more cohorts than clients");
    dagger_assert(spec.diurnal.period == 0 || spec.diurnal.low > 0,
                  "diurnal trough must keep a positive rate");
    dagger_assert(_issue, "storm needs an issue callback");

    // Spread the population over the cohorts; the first
    // (clients % cohorts) cohorts carry one extra client.
    const std::uint64_t storm_seed = seed ^ 0x73746f726dull;
    const std::uint64_t per = spec.clients / spec.cohorts;
    const std::uint64_t extra = spec.clients % spec.cohorts;
    _cohorts.reserve(spec.cohorts);
    std::uint64_t base = 0;
    for (unsigned c = 0; c < spec.cohorts; ++c) {
        const std::uint64_t count = per + (c < extra ? 1 : 0);
        const std::uint64_t s = mixSeed(storm_seed ^ mixSeed(c));
        _cohorts.push_back(Cohort{
            base, count, sim::Rng(s),
            sim::Rng((s ^ 0x5a5a5a5a5a5a5a5aull) ^ 0x9e3779b97f4a7c15ull)});
        armCohort(c);
        base += count;
    }
}

void
OpenLoopGen::armCohort(std::size_t idx)
{
    if (_eq.now() >= _stopAt)
        return;
    Cohort &c = _cohorts[idx];
    // The cohort's merged arrival rate at this instant: superposed
    // independent Poisson clients scaled by the diurnal curve.  The
    // gap is resampled per arrival, so the curve is tracked at the
    // cohort's own arrival granularity.
    const double rate = static_cast<double>(c.count) * _perClientRps *
        _diurnal.at(_eq.now());
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
    Cohort &c = _cohorts[idx];
    const std::uint64_t client = c.base + c.rng.range(c.count);
    const bool is_get = c.mix.uniform() < _getRatio;
    _issue(client, is_get);
    armCohort(idx);
}

} // namespace dagger::svc
