/**
 * @file
 * Set-associative LRU cache model.
 *
 * Used where direct-mapped residency would thrash (e.g., the MICA
 * item-residency model under Zipfian traffic): with per-set LRU the
 * hit rate converges to the Che approximation — roughly the request
 * mass of the hottest `capacity` items — which is the behaviour of a
 * real LLC.
 */

#ifndef DAGGER_MEM_SET_ASSOC_CACHE_HH
#define DAGGER_MEM_SET_ASSOC_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/metrics.hh"

namespace dagger::mem {

/** Presence-only set-associative LRU cache keyed by 64-bit keys. */
class SetAssocLruCache
{
  public:
    /**
     * @param capacity total entries (rounded up to sets*ways)
     * @param ways     associativity
     */
    explicit SetAssocLruCache(std::size_t capacity, unsigned ways = 16)
        : _ways(ways)
    {
        dagger_assert(ways >= 1, "need at least one way");
        std::size_t sets = 1;
        while (sets * ways < capacity)
            sets <<= 1;
        _sets.resize(sets);
        for (auto &s : _sets)
            s.reserve(ways);
    }

    /**
     * Access @p key: returns true on a hit.  On a miss the key is
     * inserted, evicting the set's LRU entry if full.  Hits move the
     * key to MRU position.
     */
    bool
    access(std::uint64_t key)
    {
        auto &set = _sets[indexOf(key)];
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i] == key) {
                // Move to MRU (front).
                for (std::size_t j = i; j > 0; --j)
                    set[j] = set[j - 1];
                set[0] = key;
                ++_hits;
                return true;
            }
        }
        ++_misses;
        if (set.size() < _ways) {
            set.insert(set.begin(), key);
        } else {
            for (std::size_t j = set.size() - 1; j > 0; --j)
                set[j] = set[j - 1];
            set[0] = key;
            ++_evictions;
        }
        return false;
    }

    /** Probe without mutating state or statistics. */
    bool
    contains(std::uint64_t key) const
    {
        const auto &set = _sets[indexOf(key)];
        for (std::uint64_t k : set)
            if (k == key)
                return true;
        return false;
    }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t evictions() const { return _evictions; }
    std::size_t capacity() const { return _sets.size() * _ways; }

    double
    hitRate() const
    {
        const auto total = _hits + _misses;
        return total == 0
            ? 0.0
            : static_cast<double>(_hits) / static_cast<double>(total);
    }

    /** Register this cache's statistics under @p scope. */
    void
    registerMetrics(sim::MetricScope scope) const
    {
        scope.gauge("hit_rate", [this] { return hitRate(); });
        scope.intGauge("hits", [this] { return _hits; });
        scope.intGauge("misses", [this] { return _misses; });
        scope.intGauge("evictions", [this] { return _evictions; });
    }

  private:
    std::size_t
    indexOf(std::uint64_t key) const
    {
        std::uint64_t h = key * 0x9e3779b97f4a7c15ull;
        return static_cast<std::size_t>(h >> 40) & (_sets.size() - 1);
    }

    unsigned _ways;
    std::vector<std::vector<std::uint64_t>> _sets;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
};

} // namespace dagger::mem

#endif // DAGGER_MEM_SET_ASSOC_CACHE_HH
