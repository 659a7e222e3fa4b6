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

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/metrics.hh"

namespace dagger::mem {

/**
 * Presence-only set-associative LRU cache keyed by 64-bit keys.
 *
 * The sets live in one contiguous `sets x ways` array.  Each set keeps
 * its `fill` resident keys in its first slots, most recently used
 * first.
 */
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
        _fill.resize(sets);
        _slots.resize(sets * ways);
    }

    /**
     * Access @p key: returns true on a hit.  On a miss the key is
     * inserted, evicting the set's LRU entry if full.  Hits move the
     * key to MRU position.
     */
    bool
    access(std::uint64_t key)
    {
        const std::size_t set = indexOf(key);
        std::uint64_t *const first = &_slots[set * _ways];
        unsigned &fill = _fill[set];
        for (unsigned i = 0; i < fill; ++i) {
            if (first[i] == key) {
                // Move to MRU (front).
                std::copy_backward(first, first + i, first + i + 1);
                first[0] = key;
                ++_hits;
                return true;
            }
        }
        ++_misses;
        if (fill < _ways) {
            std::copy_backward(first, first + fill, first + fill + 1);
            ++fill;
        } else {
            std::copy_backward(first, first + _ways - 1, first + _ways);
            ++_evictions;
        }
        first[0] = key;
        return false;
    }

    /** Probe without mutating state or statistics. */
    bool
    contains(std::uint64_t key) const
    {
        const std::size_t set = indexOf(key);
        const std::uint64_t *const first = &_slots[set * _ways];
        const std::uint64_t *const last = first + _fill[set];
        return std::find(first, last, key) != last;
    }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t evictions() const { return _evictions; }
    std::size_t capacity() const { return _slots.size(); }

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
        return static_cast<std::size_t>(h >> 40) & (_fill.size() - 1);
    }

    unsigned _ways;
    std::vector<std::uint64_t> _slots; ///< set s at [s * _ways, +_ways)
    std::vector<unsigned> _fill;       ///< resident keys per set
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
};

} // namespace dagger::mem

#endif // DAGGER_MEM_SET_ASSOC_CACHE_HH
