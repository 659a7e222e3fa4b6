#include "app/mica.hh"

#include "nic/load_balancer.hh"
#include "sim/logging.hh"

namespace dagger::app {

std::uint64_t
micaKeyHash(std::string_view key)
{
    return nic::objectKeyHash(
        reinterpret_cast<const std::uint8_t *>(key.data()), key.size());
}

MicaPartition::MicaPartition(std::size_t log_bytes,
                             std::size_t index_buckets)
    : _log(std::make_unique_for_overwrite<std::uint8_t[]>(log_bytes)),
      _logBytes(log_bytes), _buckets(index_buckets)
{
    dagger_assert(log_bytes >= 1024, "log too small: ", log_bytes);
    dagger_assert(index_buckets > 0 &&
                  (index_buckets & (index_buckets - 1)) == 0,
                  "index buckets must be a power of two");
}

MicaPartition::Bucket &
MicaPartition::bucketFor(std::uint64_t hash)
{
    return _buckets[(hash >> 16) & (_buckets.size() - 1)];
}

std::uint16_t
MicaPartition::tagOf(std::uint64_t hash)
{
    return static_cast<std::uint16_t>(hash & 0xffff);
}

std::uint64_t
MicaPartition::appendRecord(std::string_view key, std::string_view value)
{
    const std::size_t need = sizeof(RecordHeader) + key.size() +
                             value.size();
    dagger_assert(need <= _logBytes, "record larger than log");

    // Keep records contiguous: if the record would straddle the end of
    // the ring, skip to the ring start (MICA pads the same way).
    std::size_t pos = static_cast<std::size_t>(_head % _logBytes);
    std::uint64_t off = _head;
    if (pos + need > _logBytes) {
        off += _logBytes - pos; // skip padding
        pos = 0;
        ++_stats.logWraps;
    }

    RecordHeader hdr{static_cast<std::uint16_t>(key.size()),
                     static_cast<std::uint16_t>(value.size())};
    std::memcpy(_log.get() + pos, &hdr, sizeof(hdr));
    std::memcpy(_log.get() + pos + sizeof(hdr), key.data(), key.size());
    std::memcpy(_log.get() + pos + sizeof(hdr) + key.size(), value.data(),
                value.size());
    _head = off + need;
    return off;
}

bool
MicaPartition::readRecord(std::uint64_t offset, std::string_view key,
                          std::string &value_out) const
{
    // Stale if the log head has lapped this record.
    if (_head > offset + _logBytes)
        return false;
    const std::size_t pos = static_cast<std::size_t>(offset % _logBytes);
    RecordHeader hdr;
    if (pos + sizeof(hdr) > _logBytes)
        return false;
    std::memcpy(&hdr, _log.get() + pos, sizeof(hdr));
    const std::size_t need = sizeof(hdr) + hdr.keyLen + hdr.valLen;
    if (pos + need > _logBytes)
        return false;
    if (hdr.keyLen != key.size())
        return false;
    if (std::memcmp(_log.get() + pos + sizeof(hdr), key.data(),
                    key.size()) != 0)
        return false;
    value_out.assign(
        reinterpret_cast<const char *>(_log.get() + pos + sizeof(hdr) +
                                       hdr.keyLen),
        hdr.valLen);
    return true;
}

void
MicaPartition::set(std::string_view key, std::uint64_t hash,
                   std::string_view value)
{
    ++_stats.sets;
    const std::uint64_t off = appendRecord(key, value);
    Bucket &b = bucketFor(hash);
    const std::uint16_t tag = tagOf(hash);

    // Overwrite a matching tag if present.
    for (IndexEntry &e : b.ways) {
        if (e.valid && e.tag == tag) {
            e.offset = off;
            return;
        }
    }
    // Otherwise take an invalid way, else displace (lossy).
    for (IndexEntry &e : b.ways) {
        if (!e.valid) {
            e = IndexEntry{true, tag, off};
            return;
        }
    }
    IndexEntry &victim = b.ways[b.nextVictim];
    b.nextVictim = (b.nextVictim + 1) % kWays;
    victim = IndexEntry{true, tag, off};
    ++_stats.indexEvictions;
}

std::optional<std::string>
MicaPartition::get(std::string_view key, std::uint64_t hash)
{
    ++_stats.gets;
    Bucket &b = bucketFor(hash);
    const std::uint16_t tag = tagOf(hash);
    for (IndexEntry &e : b.ways) {
        if (!e.valid || e.tag != tag)
            continue;
        std::string value;
        if (readRecord(e.offset, key, value)) {
            ++_stats.getHits;
            return value;
        }
        // Tag collision with a different key, or a lapped record:
        // keep scanning the remaining ways.
    }
    return std::nullopt;
}

bool
MicaPartition::erase(std::string_view key)
{
    const std::uint64_t h = micaKeyHash(key);
    Bucket &b = bucketFor(h);
    const std::uint16_t tag = tagOf(h);
    for (IndexEntry &e : b.ways) {
        if (!e.valid || e.tag != tag)
            continue;
        std::string value;
        if (readRecord(e.offset, key, value)) {
            e.valid = false;
            return true;
        }
    }
    return false;
}

MicaKvs::MicaKvs(unsigned partitions, std::size_t log_bytes_each,
                 std::size_t index_buckets_each)
{
    dagger_assert(partitions >= 1, "MICA needs partitions");
    _parts.reserve(partitions);
    for (unsigned i = 0; i < partitions; ++i)
        _parts.emplace_back(log_bytes_each, index_buckets_each);
}

void
MicaKvs::set(unsigned caller_partition, std::string_view key,
             std::uint64_t hash, std::string_view value)
{
    const unsigned owner = partitionOfHash(hash);
    MicaPartition &p = _parts[owner];
    if (caller_partition != owner)
        p.noteCrossPartition();
    p.set(key, hash, value);
}

std::optional<std::string>
MicaKvs::get(unsigned caller_partition, std::string_view key,
             std::uint64_t hash)
{
    const unsigned owner = partitionOfHash(hash);
    MicaPartition &p = _parts[owner];
    if (caller_partition != owner)
        p.noteCrossPartition();
    return p.get(key, hash);
}

MicaPartition &
MicaKvs::partition(unsigned i)
{
    dagger_assert(i < _parts.size(), "bad partition ", i);
    return _parts[i];
}

MicaStats
MicaKvs::totalStats() const
{
    MicaStats s;
    for (const auto &p : _parts)
        s.merge(p.stats());
    return s;
}

} // namespace dagger::app
