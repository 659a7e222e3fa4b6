/**
 * @file
 * Set-associative LRU cache tests, including the Zipf-hit-rate
 * property the MICA residency model depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/set_assoc_cache.hh"
#include "sim/rng.hh"

namespace {

using dagger::mem::SetAssocLruCache;

/**
 * Reference model: the vector-of-vectors LRU the flat cache replaced.
 * Each set is its own vector, MRU first; a miss inserts at the front
 * and drops the back once the set holds `ways` keys.
 */
class ReferenceLru
{
  public:
    ReferenceLru(std::size_t capacity, unsigned ways) : _ways(ways)
    {
        std::size_t sets = 1;
        while (sets * ways < capacity)
            sets <<= 1;
        _sets.resize(sets);
    }

    bool
    access(std::uint64_t key)
    {
        auto &set = _sets[indexOf(key)];
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i] == key) {
                for (std::size_t j = i; j > 0; --j)
                    set[j] = set[j - 1];
                set[0] = key;
                ++hits;
                return true;
            }
        }
        ++misses;
        if (set.size() < _ways) {
            set.insert(set.begin(), key);
        } else {
            for (std::size_t j = set.size() - 1; j > 0; --j)
                set[j] = set[j - 1];
            set[0] = key;
            ++evictions;
        }
        return false;
    }

    bool
    contains(std::uint64_t key) const
    {
        for (std::uint64_t k : _sets[indexOf(key)])
            if (k == key)
                return true;
        return false;
    }

    std::size_t capacity() const { return _sets.size() * _ways; }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

  private:
    std::size_t
    indexOf(std::uint64_t key) const
    {
        std::uint64_t h = key * 0x9e3779b97f4a7c15ull;
        return static_cast<std::size_t>(h >> 40) & (_sets.size() - 1);
    }

    unsigned _ways;
    std::vector<std::vector<std::uint64_t>> _sets;
};

TEST(SetAssocLruCache, MissThenHit)
{
    SetAssocLruCache c(64, 4);
    EXPECT_FALSE(c.access(42));
    EXPECT_TRUE(c.access(42));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocLruCache, ContainsDoesNotMutate)
{
    SetAssocLruCache c(64, 4);
    c.access(7);
    EXPECT_TRUE(c.contains(7));
    EXPECT_FALSE(c.contains(8));
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocLruCache, CapacityRoundsUpToSetsTimesWays)
{
    SetAssocLruCache c(100, 16);
    EXPECT_GE(c.capacity(), 100u);
    EXPECT_EQ(c.capacity() % 16, 0u);
}

TEST(SetAssocLruCache, LruEvictsColdestWithinSet)
{
    // One set of 4 ways: keys hashed into the same set by construction
    // (sets=1 when capacity <= ways).
    SetAssocLruCache c(4, 4);
    for (std::uint64_t k = 1; k <= 4; ++k)
        c.access(k);
    // Touch 1 (making 2 the LRU), then insert 5: 2 must be evicted.
    EXPECT_TRUE(c.access(1));
    EXPECT_FALSE(c.access(5));
    EXPECT_TRUE(c.contains(1));
    EXPECT_FALSE(c.contains(2));
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(SetAssocLruCache, HotKeysSurviveZipfTraffic)
{
    // The property the MICA residency model relies on: under Zipfian
    // traffic the hit rate approaches the request mass of the hottest
    // ~capacity keys (Che approximation), instead of collapsing the
    // way a direct-mapped table does.
    SetAssocLruCache c(1 << 12, 16);
    dagger::sim::ZipfianGenerator z(1'000'000, 0.99, 99);
    for (int i = 0; i < 200'000; ++i)
        c.access(z.next() * 0x9e3779b97f4a7c15ull);
    // Warmed-up hit rate: top-4096 Zipf(0.99) mass over 1M keys is
    // ~0.55-0.60.
    EXPECT_GT(c.hitRate(), 0.40);
    EXPECT_LT(c.hitRate(), 0.75);
}

TEST(SetAssocLruCache, UniformTrafficHitRateMatchesCapacityRatio)
{
    SetAssocLruCache c(1 << 10, 8);
    dagger::sim::Rng rng(5);
    for (int i = 0; i < 100'000; ++i)
        c.access(rng.range(1 << 12)); // keyspace 4x capacity
    EXPECT_NEAR(c.hitRate(), 0.25, 0.06);
}

TEST(SetAssocLruCache, MatchesReferenceLruOnUniformAndZipfStreams)
{
    // Key spaces four times each rounded capacity, so sets fill, hit
    // and evict; Zipf keys are scattered by the same multiplier the MICA
    // residency model's hashed keys would carry.
    for (const std::size_t capacity : {std::size_t{1}, std::size_t{100},
                                       std::size_t{4096},
                                       std::size_t{1} << 18}) {
        for (const unsigned ways : {1u, 4u, 16u}) {
            for (const bool zipf : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << "capacity " << capacity << " ways " << ways
                             << (zipf ? " zipf" : " uniform"));
                SetAssocLruCache flat(capacity, ways);
                ReferenceLru ref(capacity, ways);
                ASSERT_EQ(flat.capacity(), ref.capacity());

                const std::uint64_t keys = 4 * flat.capacity() + 8;
                const int ops = static_cast<int>(
                    std::min<std::uint64_t>(8 * keys, 600'000));
                dagger::sim::Rng rng(capacity * 31 + ways);
                dagger::sim::ZipfianGenerator z(keys, 0.99,
                                                capacity * 17 + ways);
                for (int i = 0; i < ops; ++i) {
                    const std::uint64_t key =
                        zipf ? z.next() * 0x9e3779b97f4a7c15ull
                             : rng.range(keys);
                    ASSERT_EQ(flat.access(key), ref.access(key))
                        << "access " << i << " key " << key;
                    const std::uint64_t probe = rng.range(keys);
                    ASSERT_EQ(flat.contains(probe), ref.contains(probe))
                        << "probe after access " << i;
                }
                EXPECT_EQ(flat.hits(), ref.hits);
                EXPECT_EQ(flat.misses(), ref.misses);
                EXPECT_EQ(flat.evictions(), ref.evictions);
                EXPECT_GT(flat.evictions(), 0u);
            }
        }
    }
}

} // namespace
