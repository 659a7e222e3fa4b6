/**
 * @file
 * A miniature memcached: the second KVS ported onto Dagger in §5.6.
 *
 * Keeps the load-bearing memcached mechanics: a chained hash table,
 * slab-class memory accounting with a global byte budget, LRU
 * eviction, and optional TTL expiry.  Item layout and command set are
 * reduced to what the paper exercises (SET/GET, "we also keep the
 * original memcached protocol to verify the integrity and correctness
 * of the data" — our tests do the same through checksummed values).
 */

#ifndef DAGGER_APP_MEMCACHED_HH
#define DAGGER_APP_MEMCACHED_HH

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "sim/time.hh"

namespace dagger::app {

/** Statistics mirroring `stats` counters in memcached. */
struct MemcachedStats
{
    std::uint64_t cmdGet = 0;
    std::uint64_t getHits = 0;
    std::uint64_t cmdSet = 0;
    std::uint64_t evictions = 0;
    std::uint64_t expired = 0;
    std::uint64_t currItems = 0;
    std::uint64_t bytes = 0;
};

/** The cache. */
class Memcached
{
  public:
    /**
     * @param memory_limit byte budget for items (keys + values +
     *                     per-item overhead), like `-m`
     */
    explicit Memcached(std::size_t memory_limit);

    /**
     * Store an item.
     * @param ttl_ticks 0 = never expires; otherwise absolute expiry is
     *                  now + ttl (caller supplies its notion of now).
     */
    void set(std::string_view key, std::string_view value,
             sim::Tick now = 0, sim::Tick ttl_ticks = 0);

    /** Fetch an item; expiry is evaluated against @p now. */
    std::optional<std::string> get(std::string_view key, sim::Tick now = 0);

    /** Delete. @return true if the key existed. */
    bool erase(std::string_view key);

    const MemcachedStats &stats() const { return _stats; }

    /** Slab class (size-class index) an item of @p bytes lands in. */
    static unsigned slabClassOf(std::size_t bytes);

    /** Chunk size of a slab class (geometric, factor 1.25). */
    static std::size_t slabChunkSize(unsigned cls);

  private:
    struct Item
    {
        std::string key;
        std::string value;
        sim::Tick expiry = 0; ///< 0 = immortal
        unsigned slabClass = 0;
        std::list<std::string>::iterator lruIt;
    };

    /** Hashes a std::string and its std::string_view alike, so the
     *  table is probed with the caller's view (heterogeneous lookup). */
    struct KeyHash
    {
        using is_transparent = void;

        std::size_t
        operator()(std::string_view key) const noexcept
        {
            return std::hash<std::string_view>{}(key);
        }
    };

    using Table =
        std::unordered_map<std::string, Item, KeyHash, std::equal_to<>>;

    std::size_t itemFootprint(const Item &item) const;
    void evictForSpace(std::size_t need);
    void removeItem(Table::iterator it);

    std::size_t _memoryLimit;
    std::size_t _usedBytes = 0;
    Table _table;
    /** LRU: front = most recent, back = eviction victim. */
    std::list<std::string> _lru;
    MemcachedStats _stats;
};

/** Calibrated per-op service costs: memcached is ~an order of
 *  magnitude slower per op than MICA ("it is relatively slow (~12x
 *  slower than Dagger)", §5.6). */
struct MemcachedCost
{
    sim::Tick getCost = sim::nsToTicks(590);
    sim::Tick setCost = sim::nsToTicks(2600);
};

} // namespace dagger::app

#endif // DAGGER_APP_MEMCACHED_HH
