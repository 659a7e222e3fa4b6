#include "app/memcached.hh"

#include "sim/logging.hh"

namespace dagger::app {

namespace {
/// Fixed per-item metadata overhead (memcached's item header ~48-56 B).
constexpr std::size_t kItemOverhead = 48;
/// Smallest slab chunk.
constexpr std::size_t kMinChunk = 96;
/// Slab growth factor (memcached default 1.25).
constexpr double kSlabFactor = 1.25;
} // namespace

Memcached::Memcached(std::size_t memory_limit)
    : _memoryLimit(memory_limit)
{
    dagger_assert(memory_limit >= 256, "memory limit too small");
}

unsigned
Memcached::slabClassOf(std::size_t bytes)
{
    unsigned cls = 0;
    std::size_t chunk = kMinChunk;
    while (chunk < bytes + kItemOverhead) {
        chunk = static_cast<std::size_t>(
            static_cast<double>(chunk) * kSlabFactor) + 1;
        ++cls;
    }
    return cls;
}

std::size_t
Memcached::slabChunkSize(unsigned cls)
{
    std::size_t chunk = kMinChunk;
    for (unsigned i = 0; i < cls; ++i)
        chunk = static_cast<std::size_t>(
            static_cast<double>(chunk) * kSlabFactor) + 1;
    return chunk;
}

std::size_t
Memcached::itemFootprint(const Item &item) const
{
    // Memory is consumed in whole slab chunks.
    return slabChunkSize(item.slabClass);
}

void
Memcached::removeItem(Table::iterator it)
{
    _usedBytes -= itemFootprint(it->second);
    _lru.erase(it->second.lruIt);
    _table.erase(it);
    --_stats.currItems;
}

void
Memcached::evictForSpace(std::size_t need)
{
    while (_usedBytes + need > _memoryLimit && !_lru.empty()) {
        auto victim = _table.find(_lru.back());
        dagger_assert(victim != _table.end(), "LRU/table inconsistency");
        removeItem(victim);
        ++_stats.evictions;
    }
}

void
Memcached::set(std::string_view key, std::string_view value, sim::Tick now,
               sim::Tick ttl_ticks)
{
    ++_stats.cmdSet;
    auto it = _table.find(key);
    if (it != _table.end())
        removeItem(it);

    Item item;
    item.key.assign(key);
    item.value.assign(value);
    item.expiry = ttl_ticks == 0 ? 0 : now + ttl_ticks;
    item.slabClass = slabClassOf(key.size() + value.size());

    const std::size_t need = slabChunkSize(item.slabClass);
    if (need > _memoryLimit) {
        dagger_warn("memcached: item larger than memory limit, rejected");
        return;
    }
    evictForSpace(need);

    _lru.push_front(item.key);
    item.lruIt = _lru.begin();
    _usedBytes += need;
    ++_stats.currItems;
    _stats.bytes = _usedBytes;
    _table.emplace(item.key, std::move(item));
}

std::optional<std::string>
Memcached::get(std::string_view key, sim::Tick now)
{
    ++_stats.cmdGet;
    auto it = _table.find(key);
    if (it == _table.end())
        return std::nullopt;
    Item &item = it->second;
    if (item.expiry != 0 && now >= item.expiry) {
        removeItem(it);
        ++_stats.expired;
        return std::nullopt;
    }
    // LRU touch.
    _lru.erase(item.lruIt);
    _lru.push_front(item.key);
    item.lruIt = _lru.begin();
    ++_stats.getHits;
    return item.value;
}

bool
Memcached::erase(std::string_view key)
{
    auto it = _table.find(key);
    if (it == _table.end())
        return false;
    removeItem(it);
    return true;
}

} // namespace dagger::app
