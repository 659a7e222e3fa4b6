/**
 * @file
 * A faithful miniature of MICA (Lim et al., NSDI'14), the KVS the
 * paper ports onto Dagger in §5.6.
 *
 * Structure follows the original: the store is split into per-core
 * partitions (EREW — each partition is owned by exactly one serving
 * thread, with requests steered by key hash, which is what Dagger's
 * Object-Level load balancer reproduces on the NIC).  Each partition
 * is a *lossy* set-associative index over a circular append-only log:
 * inserts may displace colliding entries, and log wrap-around
 * invalidates the oldest items.
 */

#ifndef DAGGER_APP_MICA_HH
#define DAGGER_APP_MICA_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nic/load_balancer.hh"
#include "sim/logging.hh"
#include "sim/prefetch.hh"
#include "sim/time.hh"

namespace dagger::app {

/**
 * The hash MICA indexes and partitions by: nic::objectKeyHash, the
 * FNV-1a the NIC steers Object-Level requests with, so hardware
 * steering and the store agree on ownership.  Callers that already hold it pass it to the hashed
 * overloads below instead of hashing the key again.
 */
std::uint64_t micaKeyHash(std::string_view key);

/** Statistics for one partition / the whole store. */
struct MicaStats
{
    std::uint64_t gets = 0;
    std::uint64_t getHits = 0;
    std::uint64_t sets = 0;
    std::uint64_t indexEvictions = 0; ///< lossy-index displacements
    std::uint64_t logWraps = 0;
    std::uint64_t crossPartition = 0; ///< EREW violations (wrong thread)

    void
    merge(const MicaStats &o)
    {
        gets += o.gets;
        getHits += o.getHits;
        sets += o.sets;
        indexEvictions += o.indexEvictions;
        logWraps += o.logWraps;
        crossPartition += o.crossPartition;
    }
};

/** One MICA partition: lossy index + circular log. */
class MicaPartition
{
  public:
    /**
     * @param log_bytes    circular log capacity
     * @param index_buckets set count of the lossy index (power of two)
     */
    MicaPartition(std::size_t log_bytes, std::size_t index_buckets);

    /** Insert or overwrite. Always succeeds (lossy semantics). */
    void set(std::string_view key, std::string_view value)
    {
        set(key, micaKeyHash(key), value);
    }

    /** set() for a key whose micaKeyHash() is @p hash. */
    void set(std::string_view key, std::uint64_t hash,
             std::string_view value);

    /** Key and value bytes setMany() stages per key, at most. */
    static constexpr std::size_t kBulkKeyMax = 64;
    static constexpr std::size_t kBulkValueMax = 256;

    /**
     * Bulk insert, the same as set() of keys 0..n-1 in order: the same
     * log bytes and offsets, index entries, victim cursors and stats().
     * @p fill(i, key, value) writes key i's @p key_len bytes into
     * @p key and its value's @p val_len bytes into @p value.  Keys are
     * staged kBulkAhead ahead of their insert, each hashed from the
     * state of the prefix it shares with the key before it
     * (nic::ObjectKeyHasher), and the bucket each lands in is
     * prefetched while the keys before it go in.
     */
    template <class Fill>
    void
    setMany(std::uint64_t n, std::size_t key_len, std::size_t val_len,
            Fill &&fill)
    {
        dagger_assert(key_len <= kBulkKeyMax && val_len <= kBulkValueMax,
                      "setMany stages keys up to ", kBulkKeyMax,
                      " B and values up to ", kBulkValueMax, " B, got ",
                      key_len, " and ", val_len);
        struct Staged
        {
            std::uint64_t hash;
            char key[kBulkKeyMax];
            char value[kBulkValueMax];
        };
        Staged ring[kBulkAhead];
        nic::ObjectKeyHasher hasher;
        auto stage = [&](std::uint64_t i) {
            Staged &s = ring[i % kBulkAhead];
            fill(i, s.key, s.value);
            s.hash = hasher(reinterpret_cast<const std::uint8_t *>(s.key),
                            key_len);
            DAGGER_PREFETCH_W(&_buckets[bucketFor(s.hash)]);
        };
        for (std::uint64_t i = 0; i < n && i < kBulkAhead; ++i)
            stage(i);
        for (std::uint64_t i = 0; i < n; ++i) {
            const Staged &s = ring[i % kBulkAhead];
            set({s.key, key_len}, s.hash, {s.value, val_len});
            if (i + kBulkAhead < n)
                stage(i + kBulkAhead);
        }
    }

    /** Fetch; nullopt on miss (never stored, displaced, or wrapped). */
    std::optional<std::string> get(std::string_view key)
    {
        return get(key, micaKeyHash(key));
    }

    /** get() for a key whose micaKeyHash() is @p hash. */
    std::optional<std::string> get(std::string_view key,
                                   std::uint64_t hash);

    /** Remove (tombstone by index invalidation). */
    bool erase(std::string_view key);

    const MicaStats &stats() const { return _stats; }

    /** Record an EREW violation observed by the owning store. */
    void noteCrossPartition() { ++_stats.crossPartition; }

  private:
    static constexpr unsigned kWays = 8;
    /// How many keys setMany() stages ahead of the one it inserts.
    static constexpr std::uint64_t kBulkAhead = 8;

    /** One cache line of packed index entries (layout in mica.cc). */
    struct alignas(64) Bucket
    {
        std::uint64_t ways[kWays];
    };
    static_assert(sizeof(Bucket) == 64 && alignof(Bucket) == 64);

    /** Log record header. */
    struct RecordHeader
    {
        std::uint16_t keyLen;
        std::uint16_t valLen;
    };

    std::size_t
    bucketFor(std::uint64_t hash) const
    {
        return (hash >> 16) & (_buckets.size() - 1);
    }

    static std::uint16_t tagOf(std::uint64_t hash);

    /** The way whose live record holds @p key; copies its value out. */
    std::uint64_t *findLive(std::string_view key, std::uint64_t hash,
                            std::string &value_out);

    /** Append a record; returns its absolute offset. */
    std::uint64_t appendRecord(std::string_view key, std::string_view value);

    /** Read the record at absolute @p offset if still live. */
    bool readRecord(std::uint64_t offset, std::string_view key,
                    std::string &value_out) const;

    /// Circular log, deliberately not zero-filled: only the bytes of
    /// appended records are ever read (index entries point at records,
    /// and readRecord() rejects lapped ones), so pages the log never
    /// reaches are never touched and never become resident.
    std::unique_ptr<std::uint8_t[]> _log;
    std::size_t _logBytes;
    std::uint64_t _head = 0; ///< absolute append offset (monotonic)
    /// The buckets, aligned by hand, then the victim cursors, in one
    /// plain allocation.  An over-aligned operator new (memalign) frees
    /// small chunks off both ends of its block, and a second block
    /// leaves a second hole: long-lived allocations that land there
    /// keep a store that is built and freed repeatedly from reusing its
    /// old space, so the heap, and peak RSS, grow in jumps.
    std::unique_ptr<std::uint8_t[]> _index;
    std::span<Bucket> _buckets;   ///< in _index
    std::uint8_t *_victims;       ///< per-bucket displacement cursor
    MicaStats _stats;
};

/**
 * The partitioned store.  Key-to-partition mapping is micaKeyHash()
 * modulo the partition count, as the NIC's Object-Level load balancer
 * steers.
 */
class MicaKvs
{
  public:
    /**
     * @param partitions        per-core partitions
     * @param log_bytes_each    circular log capacity per partition
     * @param index_buckets_each lossy-index buckets per partition
     */
    MicaKvs(unsigned partitions, std::size_t log_bytes_each,
            std::size_t index_buckets_each);

    /** Partition owning @p key. */
    unsigned partitionOf(std::string_view key) const
    {
        return partitionOfHash(micaKeyHash(key));
    }

    /** Partition owning the key whose micaKeyHash() is @p hash. */
    unsigned partitionOfHash(std::uint64_t hash) const
    {
        return static_cast<unsigned>(hash % _parts.size());
    }

    /**
     * Access through a specific serving thread (EREW check): if
     * @p caller_partition differs from the key's owner the access
     * still works but is counted as a cross-partition violation —
     * this is what a round-robin balancer does to MICA (§5.7).
     */
    void set(unsigned caller_partition, std::string_view key,
             std::string_view value)
    {
        set(caller_partition, key, micaKeyHash(key), value);
    }
    std::optional<std::string> get(unsigned caller_partition,
                                   std::string_view key)
    {
        return get(caller_partition, key, micaKeyHash(key));
    }

    /** set() and get() for a key whose micaKeyHash() is @p hash. */
    void set(unsigned caller_partition, std::string_view key,
             std::uint64_t hash, std::string_view value);
    std::optional<std::string> get(unsigned caller_partition,
                                   std::string_view key, std::uint64_t hash);

    MicaPartition &partition(unsigned i);
    unsigned numPartitions() const
    {
        return static_cast<unsigned>(_parts.size());
    }

    /** Aggregated statistics. */
    MicaStats totalStats() const;

  private:
    std::vector<MicaPartition> _parts;
};

/**
 * Calibrated per-op service costs (see DESIGN.md §4).  Costs are
 * two-tier: an item resident in the processor LLC is served at cache
 * speed; a cold item walks the index + log in DRAM.  This is what
 * makes throughput skew-dependent, as §5.6 observes ("skewness of
 * 0.9999 ... yields even higher data locality, and therefore better
 * cache utilization", raising MICA from ~5 to ~10 Mrps).
 */
struct MicaCost
{
    /** GET of an LLC-resident item. */
    sim::Tick hotGetCost = sim::nsToTicks(55);

    /** GET that misses the LLC (index + log walk in DRAM). */
    sim::Tick coldGetCost = sim::nsToTicks(450);

    /** SET of an LLC-resident item. */
    sim::Tick hotSetCost = sim::nsToTicks(120);

    /** SET that misses the LLC. */
    sim::Tick coldSetCost = sim::nsToTicks(520);

    /** Extra cost when EREW is violated (remote partition access). */
    sim::Tick crossPartitionPenalty = sim::nsToTicks(260);

    /**
     * Modeled LLC capacity in items.  The paper's ratio is what
     * matters: ~650K LLC-resident items over a 200M-key dataset
     * (0.33%).  Bench key spaces are scaled down (see fig12), so the
     * default models the same *ratio* against a 1M-key space.
     */
    std::size_t llcItems = std::size_t{1} << 18;
};

} // namespace dagger::app

#endif // DAGGER_APP_MICA_HH
