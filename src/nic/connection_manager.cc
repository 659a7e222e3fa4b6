#include "nic/connection_manager.hh"

#include "sim/logging.hh"

namespace dagger::nic {

ConnectionManager::ConnectionManager(const NicConfig &cfg)
    : _cfg(cfg), _cache(cfg.connCacheEntries)
{}

bool
ConnectionManager::open(proto::ConnId id, const ConnTuple &tuple)
{
    ++_readerAccesses[static_cast<std::size_t>(CmReader::Manager)];
    const auto held = _cache.residentKey(id);
    if (held && *held != id && !_cfg.connCacheDramBacking) {
        // Direct-mapped conflict with nowhere to put the displaced one.
        dagger_warn("connection cache conflict: c_id ", id,
                    " displaces c_id ", *held,
                    " and DRAM backing is disabled");
        return false;
    }
    // DRAM backing is write-through: a displaced tuple is already there.
    _cache.insert(id, tuple);
    if (_cfg.connCacheDramBacking)
        _backing[id] = tuple;
    return true;
}

void
ConnectionManager::close(proto::ConnId id)
{
    ++_readerAccesses[static_cast<std::size_t>(CmReader::Manager)];
    _cache.erase(id);
    _backing.erase(id);
}

std::optional<ConnTuple>
ConnectionManager::lookup(proto::ConnId id, CmReader reader,
                          sim::Tick &penalty)
{
    ++_readerAccesses[static_cast<std::size_t>(reader)];
    penalty = 0;
    if (auto hit = _cache.lookup(id))
        return hit;
    if (!_cfg.connCacheDramBacking)
        return std::nullopt;
    auto it = _backing.find(id);
    if (it == _backing.end())
        return std::nullopt;
    // Coherent fill from host DRAM; refill the cache slot.
    penalty = _cfg.connMissPenalty;
    _cache.insert(id, it->second);
    return it->second;
}

} // namespace dagger::nic
