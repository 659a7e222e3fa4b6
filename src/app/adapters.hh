/**
 * @file
 * KvBackend adapters for the two stores of §5.6.
 */

#ifndef DAGGER_APP_ADAPTERS_HH
#define DAGGER_APP_ADAPTERS_HH

#include "app/kvs_service.hh"
#include "app/memcached.hh"
#include "app/mica.hh"
#include "mem/set_assoc_cache.hh"
#include "sim/event_queue.hh"

namespace dagger::app {

/** MICA behind the Dagger KVS service (EREW partitions by flow). */
class MicaBackend final : public KvBackend
{
  public:
    explicit MicaBackend(MicaKvs &store, MicaCost cost = {})
        : _store(store), _cost(cost), _llc(cost.llcItems)
    {}

    std::optional<std::string>
    kvGet(unsigned partition, std::string_view key, sim::Tick &cost) override
    {
        const std::uint64_t h = micaKeyHash(key);
        const unsigned caller = partition % _store.numPartitions();
        cost = accessCost(h, caller, /*is_get=*/true);
        return _store.get(caller, key, h);
    }

    bool
    kvSet(unsigned partition, std::string_view key, std::string_view value,
          sim::Tick &cost) override
    {
        const std::uint64_t h = micaKeyHash(key);
        const unsigned caller = partition % _store.numPartitions();
        cost = accessCost(h, caller, /*is_get=*/false);
        _store.set(caller, key, h, value);
        return true;
    }

  private:
    /** Cost of one access to the key hashing to @p h from @p caller. */
    sim::Tick
    accessCost(std::uint64_t h, unsigned caller, bool is_get)
    {
        const bool hot = _llc.access(h);
        sim::Tick cost = is_get ? (hot ? _cost.hotGetCost : _cost.coldGetCost)
                                : (hot ? _cost.hotSetCost : _cost.coldSetCost);
        if (_store.partitionOfHash(h) != caller)
            cost += _cost.crossPartitionPenalty;
        return cost;
    }

    MicaKvs &_store;
    MicaCost _cost;
    mem::SetAssocLruCache _llc; ///< item residency model
};

/** Memcached behind the Dagger KVS service (shared store, any thread). */
class MemcachedBackend final : public KvBackend
{
  public:
    MemcachedBackend(Memcached &store, sim::EventQueue &eq,
                     MemcachedCost cost = {})
        : _store(store), _eq(eq), _cost(cost)
    {}

    std::optional<std::string>
    kvGet(unsigned, std::string_view key, sim::Tick &cost) override
    {
        cost = _cost.getCost;
        return _store.get(key, _eq.now());
    }

    bool
    kvSet(unsigned, std::string_view key, std::string_view value,
          sim::Tick &cost) override
    {
        cost = _cost.setCost;
        _store.set(key, value, _eq.now());
        return true;
    }

  private:
    Memcached &_store;
    sim::EventQueue &_eq;
    MemcachedCost _cost;
};

} // namespace dagger::app

#endif // DAGGER_APP_ADAPTERS_HH
