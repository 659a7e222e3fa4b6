/**
 * @file
 * Request-steering tests, through the NIC: round-robin uniformity,
 * static steering, and the object-level key-affinity scheme used for
 * MICA (§5.7).  Each request is sent over a two-node rig and found in
 * the server RX ring the NIC steered it to.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "net/fault_injector.hh"
#include "nic/load_balancer.hh"
#include "sim/rng.hh"
#include "tests/nic/steering_rig.hh"

namespace {

using namespace dagger;
using namespace dagger::nic;
using test::SteeringRig;

/** A request with an 8-byte key at offset 0 (the default key window). */
struct KeyedRequest
{
    std::uint64_t key;
    std::uint32_t extra;
    std::uint32_t pad;
};

int
sendKey(SteeringRig &rig, proto::ConnId conn, std::uint64_t key)
{
    return rig.sendPod(conn, KeyedRequest{key, 7, 0});
}

/** The flow Object-Level steering picks for key bytes @p key. */
template <typename T>
int
hashedFlow(const T &key, unsigned flows)
{
    return static_cast<int>(
        objectKeyHash(reinterpret_cast<const std::uint8_t *>(&key),
                      sizeof(T)) %
        flows);
}

TEST(RoundRobinLb, CyclesThroughFlows)
{
    SteeringRig rig(4);
    const auto conn = rig.connect(LbScheme::RoundRobin);
    for (int want : {0, 1, 2, 3, 0})
        EXPECT_EQ(sendKey(rig, conn, 1), want);
}

TEST(RoundRobinLb, UniformOverManyRequests)
{
    SteeringRig rig(4);
    const auto conn = rig.connect(LbScheme::RoundRobin);
    std::map<int, int> hist;
    for (int i = 0; i < 400; ++i)
        ++hist[sendKey(rig, conn, 1)];
    ASSERT_EQ(hist.size(), 4u);
    for (auto &[f, n] : hist)
        EXPECT_EQ(n, 100) << "flow " << f;
}

TEST(RoundRobinLb, OneCursorPerNic)
{
    // Two round-robin connections share the NIC's cursor; a static
    // connection in between does not move it.
    SteeringRig rig(4);
    const auto a = rig.connect(LbScheme::RoundRobin);
    const auto b = rig.connect(LbScheme::RoundRobin);
    const auto s = rig.connect(LbScheme::Static, 3);
    EXPECT_EQ(sendKey(rig, a, 1), 0);
    EXPECT_EQ(sendKey(rig, b, 1), 1);
    EXPECT_EQ(sendKey(rig, s, 1), 3);
    EXPECT_EQ(sendKey(rig, a, 1), 2);
    EXPECT_EQ(sendKey(rig, b, 1), 3);
    EXPECT_EQ(sendKey(rig, b, 1), 0);
}

TEST(StaticLb, UsesConnectionTuple)
{
    SteeringRig rig(8);
    const auto conn = rig.connect(LbScheme::Static, 3);
    EXPECT_EQ(sendKey(rig, conn, 1), 3);
    EXPECT_EQ(sendKey(rig, conn, 2), 3);
}

TEST(ObjectLevelLb, SameKeyAlwaysSameFlow)
{
    SteeringRig rig(8);
    const auto conn = rig.connect(LbScheme::ObjectLevel);
    for (std::uint64_t key : {1ull, 42ull, 0xdeadbeefull}) {
        const int first = sendKey(rig, conn, key);
        ASSERT_GE(first, 0) << key;
        for (int i = 0; i < 10; ++i)
            EXPECT_EQ(sendKey(rig, conn, key), first) << key;
    }
}

TEST(ObjectLevelLb, SpreadsDistinctKeys)
{
    SteeringRig rig(4);
    const auto conn = rig.connect(LbScheme::ObjectLevel);
    std::map<int, int> hist;
    for (std::uint64_t key = 0; key < 4000; ++key) {
        const int flow = sendKey(rig, conn, key);
        // The flow is the key hash's, over the default 8 key bytes.
        ASSERT_EQ(flow, hashedFlow(key, 4)) << key;
        ++hist[flow];
    }
    ASSERT_EQ(hist.size(), 4u);
    for (auto &[f, n] : hist)
        EXPECT_NEAR(n, 1000, 150) << "flow " << f;
}

TEST(ObjectLevelLb, ShortPayloadFallsBackToFlowZero)
{
    SteeringRig rig(8);
    const auto conn = rig.connect(LbScheme::ObjectLevel);
    const std::uint16_t tiny = 7;
    EXPECT_EQ(rig.sendPod(conn, tiny), 0);
    // So does a payload that ends inside a configured key window.
    rig.serverNic().setObjectLevelKey(4, 4);
    EXPECT_EQ(rig.sendPod(conn, std::uint32_t{0xabcd}), 0);
}

TEST(ObjectLevelLb, KeyWindowIsConfigurable)
{
    // Only the configured key bytes steer: requests that differ
    // outside them land together.
    SteeringRig rig(8);
    const auto conn = rig.connect(LbScheme::ObjectLevel);
    rig.serverNic().setObjectLevelKey(8, 4);
    for (std::uint64_t key = 0; key < 64; ++key)
        EXPECT_EQ(sendKey(rig, conn, key), hashedFlow(std::uint32_t{7}, 8))
            << key;
}

TEST(ObjectLevelLb, UnreassembledRequestCountsAsMalformed)
{
    SteeringRig rig(4);
    const auto conn = rig.connect(LbScheme::ObjectLevel);
    net::FaultInjector fi(rig.sys.eq());
    fi.install(rig.sys.tor().attach(rig.serverNode->id()));
    fi.scriptCorrupt(1); // flip a payload byte of the first request

    const auto &mon = rig.serverNic().monitor();
    EXPECT_EQ(sendKey(rig, conn, 5), -1);
    EXPECT_EQ(mon.malformed.value(), 1u);
    EXPECT_EQ(mon.rpcsIn.value(), 0u);
    // The next request is intact and steers as usual.
    EXPECT_GE(sendKey(rig, conn, 5), 0);
    EXPECT_EQ(mon.malformed.value(), 1u);
    EXPECT_EQ(mon.rpcsIn.value(), 1u);
}

/** objectKeyHash() of @p key's bytes. */
std::uint64_t
fullHash(const std::string &key)
{
    return objectKeyHash(reinterpret_cast<const std::uint8_t *>(key.data()),
                         key.size());
}

/** @p i in base @p radix, zero-padded to @p width digits. */
std::string
digitsOf(std::uint64_t i, unsigned radix, std::size_t width)
{
    std::string key(width, '0');
    for (std::size_t pos = width; pos-- > 0 && i > 0; i /= radix)
        key[pos] = "0123456789abcdefghijklmnopqrstuvwxyz"[i % radix];
    return key;
}

TEST(ObjectKeyHasher, MatchesObjectKeyHash)
{
    // One hasher over every stream, so each stream starts from the
    // prefix the previous one left.
    std::vector<std::string> keys;
    // Sequential keys: the last digit changes every key, and carries
    // ripple through up to every digit.
    for (std::uint64_t i = 0; i < 5000; ++i)
        keys.push_back(digitsOf(i, 16, 16));
    for (std::uint64_t i = 0xfffff0; i < 0x1000010; ++i)
        keys.push_back(digitsOf(i, 16, 16));
    for (std::uint64_t i = 0; i < 3000; ++i)
        keys.push_back(digitsOf(i * 7, 36, 16));
    for (std::uint64_t i = 46600; i < 46700; ++i) // 36^3 = 46656
        keys.push_back(digitsOf(i, 36, 8));
    // A key twice, then shorter and longer ones sharing its prefix,
    // the empty key and the repeated empty key.
    const std::string base = "0000000000abcdef";
    for (const std::string &k :
         {base, base, base.substr(0, 15), base.substr(0, 3), base,
          base + "g", base + "gh", base.substr(0, 15) + "x", std::string(),
          std::string(), base})
        keys.push_back(k);
    // Keys longer than the kept prefix that share, or differ in, bytes
    // past it.
    const std::string longBase(ObjectKeyHasher::kPrefixMax + 9, 'L');
    for (std::size_t at : {std::size_t{0}, ObjectKeyHasher::kPrefixMax - 1,
                           ObjectKeyHasher::kPrefixMax,
                           ObjectKeyHasher::kPrefixMax + 5}) {
        std::string k = longBase;
        k[at] = 'M';
        keys.push_back(longBase);
        keys.push_back(k);
        keys.push_back(k.substr(0, ObjectKeyHasher::kPrefixMax));
    }
    // Random keys of 0-48 bytes, every byte value, some sharing a
    // random-length prefix with the key before.
    sim::Rng rng(0x6b6579);
    for (int i = 0; i < 4000; ++i) {
        std::string k(rng.range(49), '\0');
        for (char &c : k)
            c = static_cast<char>(rng.range(256));
        if (!keys.back().empty() && rng.chance(0.5)) {
            const std::size_t keep = rng.range(keys.back().size() + 1);
            k = keys.back().substr(0, keep) + k;
        }
        keys.push_back(k);
    }

    ObjectKeyHasher hasher;
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(hasher(reinterpret_cast<const std::uint8_t *>(
                             keys[i].data()),
                         keys[i].size()),
                  fullHash(keys[i]))
            << "key " << i << " of " << keys[i].size() << " B";
}

TEST(LbNames, AreStable)
{
    EXPECT_STREQ(lbSchemeName(LbScheme::RoundRobin), "round-robin");
    EXPECT_STREQ(lbSchemeName(LbScheme::Static), "static");
    EXPECT_STREQ(lbSchemeName(LbScheme::ObjectLevel), "object-level");
}

} // namespace
