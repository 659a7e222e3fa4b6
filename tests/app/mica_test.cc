/**
 * @file
 * Mini-MICA tests: lossy index + circular log semantics, EREW
 * partitioning consistent with the NIC's object-level load balancer.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "app/mica.hh"
#include "app/workload.hh"
#include "tests/nic/steering_rig.hh"

namespace {

using namespace dagger::app;

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
