/**
 * @file
 * Request-steering tests, through the NIC: round-robin uniformity,
 * static steering, and the object-level key-affinity scheme used for
 * MICA (§5.7).  Each request is sent over a two-node rig and found in
 * the server RX ring the NIC steered it to.
 */

#include <gtest/gtest.h>

#include <map>

#include "net/fault_injector.hh"
#include "nic/load_balancer.hh"
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

    // Over the active flows only.
    rig.serverNic().softConfig().activeFlows = 2;
    for (int want : {1, 0, 1, 0})
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
    // Clamped into the active-flow range.
    rig.serverNic().softConfig().activeFlows = 2;
    EXPECT_EQ(sendKey(rig, conn, 1), 1);
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

TEST(LbNames, AreStable)
{
    EXPECT_STREQ(lbSchemeName(LbScheme::RoundRobin), "round-robin");
    EXPECT_STREQ(lbSchemeName(LbScheme::Static), "static");
    EXPECT_STREQ(lbSchemeName(LbScheme::ObjectLevel), "object-level");
}

} // namespace
