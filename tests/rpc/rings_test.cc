/**
 * @file
 * Ring tests (Fig. 8 semantics): occupancy counting, release-based
 * reuse, flow blocking, RX overflow drops, reassembly on pop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "rpc/rings.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;

proto::RpcMessage
msg(std::size_t len, proto::RpcId id = 1)
{
    std::string payload(len, 'p');
    return proto::RpcMessage(1, id, 1, proto::MsgType::Request,
                             payload.data(), payload.size());
}

TEST(TxRing, PushPopReleaseCycle)
{
    TxRing tx(4);
    EXPECT_TRUE(tx.push(msg(8)));
    EXPECT_EQ(tx.used(), 1u);
    EXPECT_EQ(tx.pendingFrames(), 1u);
    auto frames = tx.popFrames(1);
    EXPECT_EQ(frames.size(), 1u);
    EXPECT_EQ(tx.pendingFrames(), 0u);
    EXPECT_EQ(tx.used(), 1u); // still occupied until bookkeeping
    tx.release(1);
    EXPECT_EQ(tx.used(), 0u);
}

TEST(TxRing, ClaimsKeepFifoOrderAcrossBursts)
{
    // Pending frames are stored in 16-frame bursts; messages and
    // claims of odd sizes straddle burst boundaries, and the NIC must
    // still see every frame once, in push order.
    TxRing tx(512);
    std::vector<std::pair<proto::RpcId, std::uint16_t>> pushed;
    for (proto::RpcId id = 1; id <= 12; ++id) {
        const std::size_t len = 48 * (id % 5) + 7 * id; // 1 to 6 frames
        const proto::RpcMessage m = msg(len, id);
        ASSERT_TRUE(tx.push(m));
        for (std::uint16_t i = 0; i < m.frameCount(); ++i)
            pushed.emplace_back(id, i);
    }
    ASSERT_EQ(tx.pendingFrames(), pushed.size());
    std::size_t next = 0;
    std::size_t claim = 1;
    bool pushedMore = false;
    while (tx.pendingFrames() > 0) {
        claim = claim % 7 + 3; // 4, 5, ..., 9, 3, 4, ...
        const std::size_t expect = std::min(claim, tx.pendingFrames());
        const auto frames = tx.popFrames(claim);
        ASSERT_EQ(frames.size(), expect);
        for (const proto::Frame &f : frames) {
            ASSERT_LT(next, pushed.size());
            EXPECT_EQ(f.header.rpcId, pushed[next].first);
            EXPECT_EQ(f.header.frameIdx, pushed[next].second);
            EXPECT_TRUE(f.verifyChecksum());
            ++next;
        }
        // Pushing behind a partly claimed burst keeps the order too.
        if (!pushedMore && next >= 20) {
            ASSERT_TRUE(tx.push(msg(100, 99)));
            for (std::uint16_t i = 0; i < 3; ++i)
                pushed.emplace_back(99, i);
            pushedMore = true;
        }
    }
    EXPECT_TRUE(pushedMore);
    EXPECT_EQ(next, pushed.size());
    EXPECT_EQ(tx.poppedFrames(), tx.pushedFrames());
}

TEST(TxRing, BlocksWhenEntriesNotReleased)
{
    TxRing tx(2);
    EXPECT_TRUE(tx.push(msg(8, 1)));
    EXPECT_TRUE(tx.push(msg(8, 2)));
    EXPECT_FALSE(tx.push(msg(8, 3))); // full: nothing released yet
    EXPECT_EQ(tx.blocked(), 1u);
    tx.popFrames(2);
    EXPECT_FALSE(tx.push(msg(8, 3))); // popped but not released
    tx.release(2);
    EXPECT_TRUE(tx.push(msg(8, 3)));
}

TEST(TxRing, MultiFrameMessageCountsAllFrames)
{
    TxRing tx(4);
    EXPECT_TRUE(tx.push(msg(100))); // 3 frames
    EXPECT_EQ(tx.used(), 3u);
    EXPECT_FALSE(tx.push(msg(100))); // needs 3, only 1 left
}

TEST(TxRing, NotifyFiresOnPush)
{
    TxRing tx(4);
    int notified = 0;
    tx.setNotify([&] { ++notified; });
    tx.push(msg(8));
    tx.push(msg(8, 2));
    EXPECT_EQ(notified, 2);
}

TEST(TxRing, SpaceNotifyFiresOnRelease)
{
    TxRing tx(1);
    int space = 0;
    tx.setSpaceNotify([&] { ++space; });
    tx.push(msg(8));
    tx.popFrames(1);
    tx.release(1);
    EXPECT_EQ(space, 1);
}

TEST(RxRing, DeliverPopRoundTrip)
{
    RxRing rx(8);
    auto m = msg(40);
    rx.deliver(m.toFrames());
    proto::RpcMessage out;
    ASSERT_TRUE(rx.popMessage(out));
    EXPECT_EQ(out.payload(), m.payload());
    EXPECT_FALSE(rx.popMessage(out));
}

TEST(RxRing, OverflowDrops)
{
    RxRing rx(2);
    auto m = msg(100); // 3 frames
    EXPECT_EQ(rx.deliver(m.toFrames()), 2u);
    EXPECT_EQ(rx.drops(), 1u);
}

TEST(RxRing, PartialMessageWaitsForRemainingFrames)
{
    RxRing rx(8);
    auto m = msg(100);
    auto frames = m.toFrames();
    rx.deliver({frames[0], frames[1]});
    proto::RpcMessage out;
    EXPECT_FALSE(rx.popMessage(out));
    rx.deliver({frames[2]});
    ASSERT_TRUE(rx.popMessage(out));
    EXPECT_EQ(out.payload(), m.payload());
}

TEST(RxRing, NotifyOnDelivery)
{
    RxRing rx(8);
    int notified = 0;
    rx.setNotify([&] { ++notified; });
    rx.deliver(msg(8).toFrames());
    EXPECT_EQ(notified, 1);
}

} // namespace
