#include "app/mica.hh"

namespace dagger::app {

namespace {

// An index entry packs, top bit down, a valid bit, the 16-bit tag and
// the record's 47-bit absolute log offset, as MICA's 64-bit entries do.
constexpr unsigned kOffsetBits = 47;
constexpr std::uint64_t kOffsetMask = (std::uint64_t{1} << kOffsetBits) - 1;
constexpr std::uint64_t kValid = std::uint64_t{1} << 63;

std::uint64_t
entryOf(std::uint16_t tag, std::uint64_t offset)
{
    return kValid | std::uint64_t{tag} << kOffsetBits | offset;
}

/** Whether entry @p e is valid and carries @p tag. */
bool
holdsTag(std::uint64_t e, std::uint16_t tag)
{
    return (e & ~kOffsetMask) == entryOf(tag, 0);
}

} // namespace

std::uint64_t
micaKeyHash(std::string_view key)
{
    return nic::objectKeyHash(
        reinterpret_cast<const std::uint8_t *>(key.data()), key.size());
}

MicaPartition::MicaPartition(std::size_t log_bytes,
                             std::size_t index_buckets)
    : _log(std::make_unique_for_overwrite<std::uint8_t[]>(log_bytes)),
      _logBytes(log_bytes)
{
    dagger_assert(log_bytes >= 1024, "log too small: ", log_bytes);
    dagger_assert(index_buckets > 0 &&
                  (index_buckets & (index_buckets - 1)) == 0,
                  "index buckets must be a power of two");
    const std::size_t bytes = index_buckets * (sizeof(Bucket) + 1);
    std::size_t space = bytes + alignof(Bucket) - 1;
    _index = std::make_unique_for_overwrite<std::uint8_t[]>(space);
    void *p = _index.get();
    auto *b = static_cast<Bucket *>(
        std::align(alignof(Bucket), bytes, p, space));
    std::uninitialized_value_construct_n(b, index_buckets);
    _buckets = {b, index_buckets};
    _victims = reinterpret_cast<std::uint8_t *>(b + index_buckets);
    std::uninitialized_value_construct_n(_victims, index_buckets);
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
    // Never fires: filling 2^47 B takes ~2.8e12 sets of 50 B.
    dagger_assert(off <= kOffsetMask, "log offset overflows 47 bits: ", off);

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
    const std::size_t i = bucketFor(hash);
    Bucket &b = _buckets[i];
    const std::uint16_t tag = tagOf(hash);

    // Overwrite a matching tag if present.
    for (std::uint64_t &e : b.ways) {
        if (holdsTag(e, tag)) {
            e = entryOf(tag, off);
            return;
        }
    }
    // Otherwise take an invalid way, else displace (lossy).
    for (std::uint64_t &e : b.ways) {
        if (!(e & kValid)) {
            e = entryOf(tag, off);
            return;
        }
    }
    std::uint8_t &victim = _victims[i];
    b.ways[victim] = entryOf(tag, off);
    victim = (victim + 1) % kWays;
    ++_stats.indexEvictions;
}

std::uint64_t *
MicaPartition::findLive(std::string_view key, std::uint64_t hash,
                        std::string &value_out)
{
    const std::uint16_t tag = tagOf(hash);
    for (std::uint64_t &e : _buckets[bucketFor(hash)].ways) {
        // A tag collision with a different key, or a lapped record,
        // fails readRecord(): keep scanning the remaining ways.
        if (holdsTag(e, tag) && readRecord(e & kOffsetMask, key, value_out))
            return &e;
    }
    return nullptr;
}

std::optional<std::string>
MicaPartition::get(std::string_view key, std::uint64_t hash)
{
    ++_stats.gets;
    std::string value;
    if (!findLive(key, hash, value))
        return std::nullopt;
    ++_stats.getHits;
    return value;
}

bool
MicaPartition::erase(std::string_view key)
{
    std::string value;
    std::uint64_t *e = findLive(key, micaKeyHash(key), value);
    if (!e)
        return false;
    *e &= ~kValid;
    return true;
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
