/**
 * @file
 * Deterministic random number generation for workloads and models.
 *
 * Uses xoshiro256** seeded via splitmix64 — fast, high quality, and
 * fully reproducible across platforms (unlike std::default_random_engine
 * or libstdc++ distribution implementations, which we avoid so that two
 * builds produce identical workloads).
 */

#ifndef DAGGER_SIM_RNG_HH
#define DAGGER_SIM_RNG_HH

#include <array>
#include <cmath>
#include <cstdint>

namespace dagger::sim {

/**
 * The splitmix64 finalizer: a bijective 64-bit mix whose every output
 * bit depends on every input bit.  Seeds derived from a base seed and
 * a small index pass through it so the derived streams decorrelate.
 */
constexpr std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Deterministic PRNG with convenience distributions. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x6461676765720001ull) { reseed(seed); }

    /** Re-seed; expands the seed through splitmix64. */
    void reseed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next64();

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) (bound > 0). */
    std::uint64_t range(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + range(hi - lo + 1);
    }

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /** Exponentially distributed value with the given mean. */
    double
    exponential(double mean)
    {
        double u = uniform();
        // Guard against log(0).
        if (u <= 0.0)
            u = 0x1.0p-53;
        return -mean * std::log(u);
    }

    /** Normally distributed value (Box–Muller). */
    double normal(double mean, double stddev);

  private:
    std::array<std::uint64_t, 4> _s{};
    bool _haveSpare = false;
    double _spare = 0.0;
};

/**
 * Zipfian generator over [0, n) with skew theta, using the standard
 * Gray et al. rejection-free formulation (as used by YCSB and the MICA
 * evaluation).  theta in [0, 1); theta=0.99 matches the paper's KVS
 * workloads, 0.9999 the high-skew variant.
 *
 * Construction needs zeta(n, theta), a sum of up to 2^20 pow() terms.
 * Each thread remembers the last sum it computed, keyed by n and the
 * bits of theta, so rebuilding a generator over the same key space (a
 * second workload, the next repetition) skips the sum.  The memo is
 * per thread, so concurrent constructions share nothing, and a hit
 * returns the very double the sum produced.
 */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(std::uint64_t n, double theta,
                     std::uint64_t seed = 0x7a697066ull);

    /** Next sample in [0, n). */
    std::uint64_t next();

    std::uint64_t n() const { return _n; }

  private:
    std::uint64_t _n;
    double _alpha;
    double _zetan;
    double _eta;
    double _rank1Bound; ///< uz below this (and >= 1) samples rank 1
    Rng _rng;
};

} // namespace dagger::sim

#endif // DAGGER_SIM_RNG_HH
