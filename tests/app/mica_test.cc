/**
 * @file
 * Mini-MICA tests: lossy index + circular log semantics, EREW
 * partitioning consistent with the NIC's object-level load balancer.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "app/mica.hh"
#include "app/workload.hh"
#include "sim/rng.hh"
#include "tests/nic/steering_rig.hh"

namespace {

using namespace dagger::app;

/**
 * MicaPartition as first written, the oracle for the packed index:
 * 16-byte entries and an inline victim cursor, 136 B a bucket, over
 * the same circular log.
 */
class ReferencePartition
{
  public:
    ReferencePartition(std::size_t log_bytes, std::size_t buckets)
        : _log(log_bytes), _buckets(buckets)
    {
    }

    void
    set(std::string_view key, std::string_view value)
    {
        ++_stats.sets;
        const std::uint64_t off = append(key, value);
        const std::uint64_t h = micaKeyHash(key);
        Bucket &b = bucketFor(h);
        const auto tag = static_cast<std::uint16_t>(h & 0xffff);
        for (IndexEntry &e : b.ways) {
            if (e.valid && e.tag == tag) {
                e.offset = off;
                return;
            }
        }
        for (IndexEntry &e : b.ways) {
            if (!e.valid) {
                e = IndexEntry{true, tag, off};
                return;
            }
        }
        IndexEntry &victim = b.ways[b.nextVictim];
        b.nextVictim = (b.nextVictim + 1) % 8;
        victim = IndexEntry{true, tag, off};
        ++_stats.indexEvictions;
    }

    std::optional<std::string>
    get(std::string_view key)
    {
        ++_stats.gets;
        std::string value;
        if (!findLive(key, value))
            return std::nullopt;
        ++_stats.getHits;
        return value;
    }

    bool
    erase(std::string_view key)
    {
        std::string value;
        IndexEntry *e = findLive(key, value);
        if (e)
            e->valid = false;
        return e != nullptr;
    }

    const MicaStats &stats() const { return _stats; }

  private:
    struct IndexEntry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        std::uint64_t offset = 0;
    };
    struct Bucket
    {
        IndexEntry ways[8];
        unsigned nextVictim = 0;
    };
    static_assert(sizeof(Bucket) == 136);

    Bucket &
    bucketFor(std::uint64_t h)
    {
        return _buckets[(h >> 16) & (_buckets.size() - 1)];
    }

    std::uint64_t
    append(std::string_view key, std::string_view value)
    {
        const std::size_t need = 4 + key.size() + value.size();
        std::size_t pos = _head % _log.size();
        std::uint64_t off = _head;
        if (pos + need > _log.size()) {
            off += _log.size() - pos;
            pos = 0;
            ++_stats.logWraps;
        }
        const std::uint16_t lens[2] = {
            static_cast<std::uint16_t>(key.size()),
            static_cast<std::uint16_t>(value.size())};
        std::uint8_t *rec = _log.data() + pos;
        std::memcpy(rec, lens, 4);
        std::memcpy(rec + 4, key.data(), key.size());
        std::memcpy(rec + 4 + key.size(), value.data(), value.size());
        _head = off + need;
        return off;
    }

    IndexEntry *
    findLive(std::string_view key, std::string &value_out)
    {
        const std::uint64_t h = micaKeyHash(key);
        const auto tag = static_cast<std::uint16_t>(h & 0xffff);
        for (IndexEntry &e : bucketFor(h).ways) {
            if (!e.valid || e.tag != tag || _head > e.offset + _log.size())
                continue;
            const std::uint8_t *rec = _log.data() + e.offset % _log.size();
            std::uint16_t lens[2];
            std::memcpy(lens, rec, 4);
            if (lens[0] != key.size() ||
                std::memcmp(rec + 4, key.data(), key.size()) != 0)
                continue;
            value_out.assign(reinterpret_cast<const char *>(rec + 4 + lens[0]),
                             lens[1]);
            return &e;
        }
        return nullptr;
    }

    std::vector<std::uint8_t> _log;
    std::uint64_t _head = 0;
    std::vector<Bucket> _buckets;
    MicaStats _stats;
};

std::array<std::uint64_t, 6>
statsOf(const MicaStats &s)
{
    return {s.gets, s.getHits, s.sets, s.indexEvictions, s.logWraps,
            s.crossPartition};
}

TEST(MicaPartition, SetGetRoundTrip)
{
    MicaPartition p(1 << 16, 1 << 8);
    p.set("hello", "world");
    auto got = p.get("hello");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "world");
}

TEST(MicaPartition, MissOnAbsentKey)
{
    MicaPartition p(1 << 16, 1 << 8);
    EXPECT_FALSE(p.get("nope").has_value());
    EXPECT_EQ(p.stats().gets, 1u);
    EXPECT_EQ(p.stats().getHits, 0u);
}

TEST(MicaPartition, OverwriteReturnsLatestValue)
{
    MicaPartition p(1 << 16, 1 << 8);
    p.set("k", "v1");
    p.set("k", "v2");
    EXPECT_EQ(*p.get("k"), "v2");
}

TEST(MicaPartition, EraseRemoves)
{
    MicaPartition p(1 << 16, 1 << 8);
    p.set("k", "v");
    EXPECT_TRUE(p.erase("k"));
    EXPECT_FALSE(p.get("k").has_value());
    EXPECT_FALSE(p.erase("k"));
}

TEST(MicaPartition, LogWrapInvalidatesOldEntries)
{
    // Tiny log: 4 KB; each record ~ 4 + 8 + 8 = 20 B -> ~200 records.
    MicaPartition p(4096, 1 << 10);
    for (int i = 0; i < 1000; ++i) {
        char key[9], val[9];
        std::snprintf(key, sizeof(key), "k%07d", i);
        std::snprintf(val, sizeof(val), "v%07d", i);
        p.set(key, val);
    }
    EXPECT_GT(p.stats().logWraps, 0u);
    // Oldest entries are gone; the newest survive.
    EXPECT_FALSE(p.get("k0000000").has_value());
    EXPECT_EQ(*p.get("k0000999"), "v0000999");
}

TEST(MicaPartition, WrapAndStaleDetectionOnAnUnzeroedLog)
{
    // The log is allocated without zero-filling.  Dirty the heap first
    // with bytes that parse as records of the very keys set below, so
    // that a read of a log byte no record wrote would surface as a
    // wrong value rather than pass by luck on zeroed memory.
    constexpr std::size_t kLog = 4096;
    auto keyOf = [](int i) {
        char key[9];
        std::snprintf(key, sizeof(key), "k%07d", i);
        return std::string(key);
    };
    auto valueOf = [](int i) {
        char val[9];
        std::snprintf(val, sizeof(val), "v%07d", i);
        return std::string(val);
    };
    {
        std::vector<std::uint8_t> dirt(kLog);
        const std::uint16_t lens[2] = {8, 8};
        int i = 0;
        for (std::size_t pos = 0; pos + 20 <= kLog; pos += 20, ++i) {
            std::memcpy(dirt.data() + pos, lens, sizeof(lens));
            std::memcpy(dirt.data() + pos + 4, keyOf(i).data(), 8);
            std::memcpy(dirt.data() + pos + 12, "GARBAGE!", 8);
        }
    }
    MicaPartition p(kLog, 1 << 10);
    EXPECT_FALSE(p.get(keyOf(0)).has_value()) << "read an unwritten record";
    for (int i = 0; i < 1000; ++i) {
        p.set(keyOf(i), valueOf(i));
        ASSERT_EQ(p.get(keyOf(i)), valueOf(i));
    }
    EXPECT_GT(p.stats().logWraps, 0u);
    // Lapped records miss; every hit is the key's own latest value.
    std::size_t hits = 0;
    for (int i = 0; i < 1000; ++i) {
        if (auto got = p.get(keyOf(i))) {
            EXPECT_EQ(*got, valueOf(i));
            ++hits;
        }
    }
    EXPECT_FALSE(p.get(keyOf(0)).has_value());
    EXPECT_EQ(p.get(keyOf(999)), valueOf(999));
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, 1000u);
}

TEST(MicaPartition, LossyIndexDisplacesUnderPressure)
{
    // One bucket, 8 ways: the 9th distinct key displaces something.
    MicaPartition p(1 << 16, 1);
    for (int i = 0; i < 32; ++i) {
        char key[9];
        std::snprintf(key, sizeof(key), "k%07d", i);
        p.set(key, "v");
    }
    EXPECT_GT(p.stats().indexEvictions, 0u);
    std::size_t live = 0;
    for (int i = 0; i < 32; ++i) {
        char key[9];
        std::snprintf(key, sizeof(key), "k%07d", i);
        live += p.get(key).has_value();
    }
    EXPECT_LE(live, 8u);
    EXPECT_GT(live, 0u);
}

TEST(MicaPartition, PackedIndexMatchesReferenceLayout)
{
    // Keys whose hashes agree in bits 0-17 share a tag and, at up to
    // four buckets, a bucket; two more differ from that tag in only
    // bit 0 or only bit 15 and must never be taken for it.
    const std::vector<std::string> sameTag = {"c0", "c496285", "c784812",
                                              "c793162"};
    const std::string nearTag[2] = {"c16729", "c416533"};
    constexpr std::uint64_t kLow18 = (1u << 18) - 1;
    const std::uint64_t base = micaKeyHash(sameTag[0]) & kLow18;
    for (const std::string &k : sameTag)
        ASSERT_EQ(micaKeyHash(k) & kLow18, base) << k;
    ASSERT_EQ(micaKeyHash(nearTag[0]) & kLow18, base ^ 1);
    ASSERT_EQ(micaKeyHash(nearTag[1]) & kLow18, base ^ 0x8000);

    std::vector<std::string> keys(sameTag);
    keys.insert(keys.end(), std::begin(nearTag), std::end(nearTag));
    for (int i = 0; i < 14; ++i)
        keys.push_back("k" + std::to_string(i));

    MicaStats seen;
    std::uint64_t erased = 0, sameTagHits = 0;
    for (const std::size_t buckets : {1u, 2u, 4u}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            // A 4 KB log wraps every ~130 sets of these records.
            MicaPartition packed(4096, buckets);
            ReferencePartition ref(4096, buckets);
            dagger::sim::Rng rng(seed);
            for (int op = 0; op < 3000; ++op) {
                const std::string &key = keys[rng.range(keys.size())];
                const std::uint64_t dice = rng.range(100);
                if (dice < 45) {
                    const std::string value(rng.range(49),
                                            static_cast<char>('a' + op % 26));
                    packed.set(key, value);
                    ref.set(key, value);
                } else if (dice < 85) {
                    const std::optional<std::string> want = ref.get(key);
                    ASSERT_EQ(packed.get(key), want)
                        << "buckets " << buckets << " seed " << seed
                        << " op " << op << " get " << key;
                    if (want && key[0] == 'c')
                        ++sameTagHits;
                } else {
                    const bool want = ref.erase(key);
                    ASSERT_EQ(packed.erase(key), want)
                        << "buckets " << buckets << " seed " << seed
                        << " op " << op << " erase " << key;
                    erased += want;
                }
                ASSERT_EQ(statsOf(packed.stats()), statsOf(ref.stats()))
                    << "buckets " << buckets << " seed " << seed << " op "
                    << op;
            }
            seen.merge(packed.stats());
        }
    }
    // The streams reached every path of the index.
    EXPECT_GT(seen.getHits, 0u);
    EXPECT_LT(seen.getHits, seen.gets);
    EXPECT_GT(seen.indexEvictions, 0u);
    EXPECT_GT(seen.logWraps, 0u);
    EXPECT_GT(erased, 0u);
    EXPECT_GT(sameTagHits, 0u);
}

/** One setMany() workload: key and value lengths and their filler. */
struct BulkCase
{
    const char *name;
    std::size_t keyLen;
    std::size_t valLen;
    std::function<void(std::uint64_t, char *, char *)> fill;
};

/** Flight's Citizens key i: id i + 1 as 16 hex digits. */
void
flightKey(std::uint64_t i, char *key)
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(i + 1));
    std::memcpy(key, text, 16);
}

/**
 * setMany() on one partition and set() of the same keys one at a time
 * on another end alike: equal stats, equal get() of every key, and
 * equal results for a follow-up stream that laps part of the log.
 */
void
expectBulkMatchesSets(const BulkCase &c, std::uint64_t n,
                      std::size_t log_bytes, std::size_t buckets,
                      MicaStats &seen)
{
    SCOPED_TRACE(::testing::Message()
                 << c.name << " n " << n << " log " << log_bytes
                 << " buckets " << buckets);
    MicaPartition bulk(log_bytes, buckets);
    MicaPartition seq(log_bytes, buckets);
    bulk.setMany(n, c.keyLen, c.valLen, c.fill);
    std::vector<std::string> keys;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string key(c.keyLen, '\0'), value(c.valLen, '\0');
        c.fill(i, key.data(), value.data());
        seq.set(key, value);
        keys.push_back(std::move(key));
    }
    ASSERT_EQ(statsOf(bulk.stats()), statsOf(seq.stats()));
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(bulk.get(keys[i]), seq.get(keys[i])) << "key " << i;
    // Equal head offsets: later records land, and lap, alike.
    dagger::sim::Rng rng(n + log_bytes);
    for (int op = 0; op < 200 && n > 0; ++op) {
        const std::string &key = keys[rng.range(n)];
        if (rng.chance(0.5)) {
            const std::string value(rng.range(40), 'w');
            bulk.set(key, value);
            seq.set(key, value);
        } else {
            ASSERT_EQ(bulk.get(key), seq.get(key)) << "op " << op;
        }
    }
    ASSERT_EQ(statsOf(bulk.stats()), statsOf(seq.stats()));
    seen.merge(bulk.stats());
}

TEST(MicaPartition, BulkLoadMatchesSequentialSets)
{
    const KvWorkload small(1000, 0.99, 0.5, kSmall);
    const KvWorkload tiny(1000, 0.99, 0.5, kTiny);
    const auto kv = [](const KvWorkload &wl) {
        return [&wl](std::uint64_t i, char *key, char *value) {
            wl.keyInto(i, key);
            wl.valueInto({key, wl.shape().keyLen}, value);
        };
    };
    const std::vector<BulkCase> cases = {
        {"flight", 16, 10,
         [](std::uint64_t i, char *key, char *value) {
             flightKey(i, key);
             std::memcpy(value, "citizen-ok", 10);
         }},
        {"small", kSmall.keyLen, kSmall.valLen, kv(small)},
        {"tiny", kTiny.keyLen, kTiny.valLen, kv(tiny)},
        // Five keys over and over: the overwrite path inside a batch.
        {"repeats", 16, 1,
         [](std::uint64_t i, char *key, char *value) {
             flightKey(i % 5, key);
             value[0] = static_cast<char>('a' + i % 26);
         }},
        // The largest records setMany() stages, one byte per key.
        {"widest", MicaPartition::kBulkKeyMax, MicaPartition::kBulkValueMax,
         [](std::uint64_t i, char *key, char *value) {
             std::memset(key, 'k', MicaPartition::kBulkKeyMax);
             std::memcpy(key + MicaPartition::kBulkKeyMax - 8, &i, 8);
             std::memset(value, static_cast<int>('A' + i % 26),
                         MicaPartition::kBulkValueMax);
         }},
    };
    // Around the staging distance (8), and past many batches.
    const std::uint64_t counts[] = {0, 1, 7, 8, 9, 17, 600};
    // One bucket forces displacements; a 4 KB log wraps inside a
    // batch (every 12 records of the widest shape).
    const std::pair<std::size_t, std::size_t> stores[] = {
        {4096, 1}, {4096, 8}, {1 << 20, 1}, {1 << 20, 64}};

    MicaStats seen;
    for (const BulkCase &c : cases)
        for (std::uint64_t n : counts)
            for (const auto &[log_bytes, buckets] : stores) {
                expectBulkMatchesSets(c, n, log_bytes, buckets, seen);
                if (HasFatalFailure())
                    return;
            }

    // Several batches into one partition, of varying value lengths.
    MicaPartition bulk(1 << 14, 4);
    MicaPartition seq(1 << 14, 4);
    for (std::size_t val_len : {1u, 10u, 32u, 255u, 3u}) {
        const auto fill = [val_len](std::uint64_t i, char *key,
                                    char *value) {
            flightKey(i * 3, key);
            std::memset(value, static_cast<int>('a' + val_len % 26),
                        val_len);
        };
        bulk.setMany(300, 16, val_len, fill);
        for (std::uint64_t i = 0; i < 300; ++i) {
            char key[16];
            std::string value(val_len, '\0');
            fill(i, key, value.data());
            seq.set({key, 16}, value);
        }
        ASSERT_EQ(statsOf(bulk.stats()), statsOf(seq.stats()))
            << "value length " << val_len;
    }
    for (std::uint64_t i = 0; i < 900; ++i) {
        char key[16];
        flightKey(i, key);
        ASSERT_EQ(bulk.get({key, 16}), seq.get({key, 16})) << "key " << i;
    }
    seen.merge(bulk.stats());
    EXPECT_GT(seen.indexEvictions, 0u);
    EXPECT_GT(seen.logWraps, 0u);
    EXPECT_GT(seen.getHits, 0u);
    EXPECT_LT(seen.getHits, seen.gets);
}

TEST(MicaKvs, PartitioningMatchesNicLoadBalancer)
{
    // Each key is sent to a 4-flow server NIC over an Object-Level
    // connection; the RX ring it lands in is its owning partition.
    MicaKvs kvs(4, 1 << 16, 1 << 8);
    dagger::test::SteeringRig rig(4);
    const auto conn = rig.connect(dagger::nic::LbScheme::ObjectLevel);
    std::set<unsigned> flows;
    for (int i = 0; i < 200; ++i) {
        char key[9];
        std::snprintf(key, sizeof(key), "k%07d", i);
        const int flow = rig.send(conn, key, 8);
        ASSERT_GE(flow, 0) << key;
        EXPECT_EQ(kvs.partitionOf(std::string_view(key, 8)),
                  static_cast<unsigned>(flow))
            << key;
        flows.insert(static_cast<unsigned>(flow));
    }
    EXPECT_EQ(flows.size(), 4u);
}

TEST(MicaKvs, CrossPartitionAccessCountedButCorrect)
{
    MicaKvs kvs(4, 1 << 16, 1 << 8);
    const std::string key = "somekey1";
    const unsigned owner = kvs.partitionOf(key);
    const unsigned wrong = (owner + 1) % 4;
    kvs.set(wrong, key, "value");
    auto got = kvs.get(wrong, key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "value");
    EXPECT_EQ(kvs.totalStats().crossPartition, 2u);
    // Correctly-steered access: no violation counted.
    kvs.get(owner, key);
    EXPECT_EQ(kvs.totalStats().crossPartition, 2u);
}

TEST(MicaKvs, KeysSpreadOverPartitions)
{
    MicaKvs kvs(8, 1 << 16, 1 << 8);
    std::set<unsigned> seen;
    for (int i = 0; i < 500; ++i) {
        char key[9];
        std::snprintf(key, sizeof(key), "k%07d", i);
        seen.insert(kvs.partitionOf(std::string_view(key, 8)));
    }
    EXPECT_EQ(seen.size(), 8u);
}

TEST(MicaKvs, BulkIntegrityUnderZipf)
{
    MicaKvs kvs(4, 1 << 20, 1 << 12);
    KvWorkload wl(10'000, 0.99, 0.5, kTiny);
    // Warm: set every key once.
    for (std::uint64_t i = 0; i < wl.numKeys(); ++i) {
        const auto key = wl.keyFor(i);
        kvs.set(kvs.partitionOf(key), key, wl.valueFor(key));
    }
    // Every hit must return the deterministic value.
    std::uint64_t hits = 0;
    for (int i = 0; i < 20'000; ++i) {
        KvOp op = wl.next();
        const unsigned part = kvs.partitionOf(op.key);
        if (op.isGet) {
            auto got = kvs.get(part, op.key);
            if (got) {
                ++hits;
                ASSERT_EQ(*got, wl.valueFor(op.key)) << op.key;
            }
        } else {
            kvs.set(part, op.key, op.value);
        }
    }
    // Zipf(0.99) over a warm 10k store: the hot head should hit.
    EXPECT_GT(hits, 5000u);
}

TEST(Workload, DeterministicAcrossInstances)
{
    KvWorkload a(1000, 0.99, 0.95, kSmall, 7);
    KvWorkload b(1000, 0.99, 0.95, kSmall, 7);
    for (int i = 0; i < 100; ++i) {
        KvOp x = a.next(), y = b.next();
        EXPECT_EQ(x.isGet, y.isGet);
        EXPECT_EQ(x.key, y.key);
        EXPECT_EQ(x.value, y.value);
    }
}

TEST(Workload, ShapesMatchPaper)
{
    KvWorkload tiny(1000, 0.99, 0.95, kTiny);
    KvOp op = tiny.next();
    EXPECT_EQ(op.key.size(), 8u);
    KvWorkload small(1000, 0.99, 0.5, kSmall);
    int gets = 0;
    for (int i = 0; i < 2000; ++i) {
        KvOp o = small.next();
        EXPECT_EQ(o.key.size(), 16u);
        if (!o.isGet) {
            EXPECT_EQ(o.value.size(), 32u);
        }
        gets += o.isGet;
    }
    EXPECT_NEAR(gets, 1000, 120);
}

} // namespace
