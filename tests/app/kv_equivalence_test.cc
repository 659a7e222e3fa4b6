/**
 * @file
 * Byte-exactness guards for the KV application layer: the workload
 * generator's keys and values are pinned by digest, and MICA's hashed
 * overloads (hash once, pass it down) must behave exactly like the
 * key-only API, down to every statistic and every modelled cost.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "app/adapters.hh"
#include "app/mica.hh"
#include "app/workload.hh"
#include "mem/set_assoc_cache.hh"
#include "nic/load_balancer.hh"
#include "sim/rng.hh"

namespace {

using namespace dagger;
using namespace dagger::app;

std::uint64_t
fnv1a(std::uint64_t h, std::string_view bytes)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a over keyFor(i) then valueFor(keyFor(i)) for i in [0, 10,000). */
std::uint64_t
generatorDigest(DatasetShape shape)
{
    const KvWorkload wl(10'000, 0.99, 0.5, shape);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t i = 0; i < 10'000; ++i) {
        const std::string key = wl.keyFor(i);
        EXPECT_EQ(key.size(), shape.keyLen);
        const std::string value = wl.valueFor(key);
        EXPECT_EQ(value.size(), shape.valLen);
        h = fnv1a(fnv1a(h, key), value);
    }
    return h;
}

TEST(KvWorkloadBytes, KeysAndValuesArePinned)
{
    // Digests of the generator as first written (one `% key.size()`
    // per value byte).  The 300-byte shape cycles each 16-byte key
    // nearly 19 times and wraps static_cast<char>(i) past 127, so the
    // negative-remainder branch of the value formula is covered.
    EXPECT_EQ(generatorDigest(kTiny), 0xbb80d31fc0ebfe51ull);
    EXPECT_EQ(generatorDigest(kSmall), 0x196b71d44532fc3full);
    EXPECT_EQ(generatorDigest(DatasetShape{16, 300, "wide"}),
              0x2fe5431c3ddf5189ull);
}

/** The value formula as first written: one byte at a time, in char. */
std::string
referenceValue(std::string_view key, std::size_t val_len)
{
    std::string v(val_len, 'v');
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<char>(
            'A' + (key[i % key.size()] * 31 + static_cast<char>(i)) % 26);
    return v;
}

TEST(KvWorkloadBytes, ValueTableMatchesFormulaOverEveryByte)
{
    // Key j holds byte (j + 37 * t) % 256 at position t, so over the
    // 256 keys every position sees every byte value, including the
    // ones >= 128 that are negative as char.  Values past 128 bytes
    // make char(i) negative too.  Keys of every length go through
    // every shape, also where the key is not the shape's length.
    constexpr std::size_t kKeyLens[] = {1, 7, 8, 16};
    constexpr std::size_t kValLens[] = {8, 32, 300, 600};
    for (const std::size_t shape_key : kKeyLens) {
        for (const std::size_t val_len : kValLens) {
            const KvWorkload wl(100, 0.99, 0.5,
                                DatasetShape{shape_key, val_len, "probe"});
            for (const std::size_t key_len : kKeyLens) {
                for (unsigned j = 0; j < 256; ++j) {
                    std::string key(key_len, '\0');
                    for (std::size_t t = 0; t < key_len; ++t)
                        key[t] = static_cast<char>((j + 37 * t) % 256);
                    ASSERT_EQ(wl.valueFor(key), referenceValue(key, val_len))
                        << "shape " << shape_key << "/" << val_len
                        << ", key length " << key_len << ", key " << j;
                }
            }
        }
    }
}

TEST(KvWorkloadDeathTest, RejectsEmptyKeysAndValues)
{
    EXPECT_DEATH(KvWorkload(10, 0.99, 0.5, DatasetShape{0, 8, "nokey"}),
                 "non-empty keys and values");
    EXPECT_DEATH(KvWorkload(10, 0.99, 0.5, DatasetShape{8, 0, "noval"}),
                 "non-empty keys and values");
    const KvWorkload wl(10, 0.99, 0.5, kTiny);
    EXPECT_DEATH(wl.valueFor(""), "empty key");
}

void
expectSameStats(const MicaStats &a, const MicaStats &b)
{
    EXPECT_EQ(a.gets, b.gets);
    EXPECT_EQ(a.getHits, b.getHits);
    EXPECT_EQ(a.sets, b.sets);
    EXPECT_EQ(a.indexEvictions, b.indexEvictions);
    EXPECT_EQ(a.logWraps, b.logWraps);
    EXPECT_EQ(a.crossPartition, b.crossPartition);
}

TEST(MicaHashedPath, MatchesKeyOnlyApiAndBackendCosts)
{
    // Three stores fed one random stream from random serving threads:
    // `plain` through the key-only API, `hashed` through the hashed
    // overloads, and `served` through MicaBackend, whose costs are
    // checked against the residency model recomputed from the key.
    // Logs and indexes are small enough to wrap and displace.
    constexpr unsigned kParts = 4;
    MicaKvs plain(kParts, 64 << 10, 1 << 6);
    MicaKvs hashed(kParts, 64 << 10, 1 << 6);
    MicaKvs served(kParts, 64 << 10, 1 << 6);
    const MicaCost cost{.llcItems = 512};
    MicaBackend backend(served, cost);
    mem::SetAssocLruCache llc(cost.llcItems);

    KvWorkload wl(5'000, 0.99, 0.5, kTiny, 11);
    sim::Rng callers(12);
    for (int i = 0; i < 50'000; ++i) {
        const KvOp op = wl.next();
        const auto thread = static_cast<unsigned>(callers.range(2 * kParts));
        const unsigned caller = thread % kParts;
        const std::uint64_t h = micaKeyHash(op.key);
        ASSERT_EQ(h, nic::objectKeyHash(
                         reinterpret_cast<const std::uint8_t *>(
                             op.key.data()),
                         op.key.size()));
        ASSERT_EQ(hashed.partitionOfHash(h), plain.partitionOf(op.key));

        const bool hot = llc.access(h);
        sim::Tick want = op.isGet
            ? (hot ? cost.hotGetCost : cost.coldGetCost)
            : (hot ? cost.hotSetCost : cost.coldSetCost);
        if (plain.partitionOf(op.key) != caller)
            want += cost.crossPartitionPenalty;

        sim::Tick got = 0;
        if (op.isGet) {
            const std::optional<std::string> a = plain.get(caller, op.key);
            ASSERT_EQ(hashed.get(caller, op.key, h), a) << "op " << i;
            ASSERT_EQ(backend.kvGet(thread, op.key, got), a) << "op " << i;
        } else {
            plain.set(caller, op.key, op.value);
            hashed.set(caller, op.key, h, op.value);
            ASSERT_TRUE(backend.kvSet(thread, op.key, op.value, got));
        }
        ASSERT_EQ(got, want) << "op " << i;
    }

    const MicaStats a = plain.totalStats();
    expectSameStats(hashed.totalStats(), a);
    expectSameStats(served.totalStats(), a);
    for (unsigned p = 0; p < kParts; ++p) {
        expectSameStats(hashed.partition(p).stats(),
                        plain.partition(p).stats());
        expectSameStats(served.partition(p).stats(),
                        plain.partition(p).stats());
    }
    // The stream reached every path the overloads take.
    EXPECT_GT(a.getHits, 0u);
    EXPECT_LT(a.getHits, a.gets);
    EXPECT_GT(a.indexEvictions, 0u);
    EXPECT_GT(a.logWraps, 0u);
    EXPECT_GT(a.crossPartition, 0u);
    EXPECT_GT(llc.hits(), 0u);
    EXPECT_GT(llc.evictions(), 0u);
}

} // namespace
