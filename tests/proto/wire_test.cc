/**
 * @file
 * Wire-format tests: frame layout, multi-frame split/reassembly,
 * checksum detection, reassembler state machine.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "proto/wire.hh"

namespace {

using namespace dagger::proto;

RpcMessage
makeMsg(std::size_t len, ConnId conn = 3, RpcId rpc = 9, FnId fn = 2,
        MsgType type = MsgType::Request)
{
    std::string payload(len, '\0');
    for (std::size_t i = 0; i < len; ++i)
        payload[i] = static_cast<char>('a' + i % 26);
    return RpcMessage(conn, rpc, fn, type, payload.data(), payload.size());
}

TEST(Wire, FrameModelsOneCacheLine)
{
    // The in-memory Frame is a header plus a payload *view*; what it
    // models on the wire is still one 64-byte cache line.
    EXPECT_EQ(Frame::kWireBytes, kCacheLineBytes);
    EXPECT_EQ(sizeof(FrameHeader), kHeaderBytes);
    EXPECT_EQ(kFramePayload, 48u);
    EXPECT_EQ(kHeaderBytes + kFramePayload, kCacheLineBytes);
}

TEST(Wire, EmptyPayloadUsesOneFrame)
{
    RpcMessage m = makeMsg(0);
    EXPECT_EQ(m.frameCount(), 1u);
    EXPECT_EQ(m.wireBytes(), 64u);
}

TEST(Wire, FrameCountMatchesPayloadSize)
{
    EXPECT_EQ(makeMsg(1).frameCount(), 1u);
    EXPECT_EQ(makeMsg(48).frameCount(), 1u);
    EXPECT_EQ(makeMsg(49).frameCount(), 2u);
    EXPECT_EQ(makeMsg(96).frameCount(), 2u);
    EXPECT_EQ(makeMsg(97).frameCount(), 3u);
    EXPECT_EQ(makeMsg(580).frameCount(), 13u); // Text-service median RPC
}

TEST(Wire, RoundTripSingleFrame)
{
    RpcMessage m = makeMsg(32);
    auto frames = m.toFrames();
    ASSERT_EQ(frames.size(), 1u);
    RpcMessage out;
    ASSERT_TRUE(RpcMessage::fromFrames(frames, out));
    EXPECT_EQ(out.connId(), m.connId());
    EXPECT_EQ(out.rpcId(), m.rpcId());
    EXPECT_EQ(out.fnId(), m.fnId());
    EXPECT_EQ(out.type(), MsgType::Request);
    EXPECT_EQ(out.payload(), m.payload());
}

TEST(Wire, RoundTripMultiFrame)
{
    for (std::size_t len : {49u, 100u, 512u, 1500u}) {
        RpcMessage m = makeMsg(len);
        RpcMessage out;
        ASSERT_TRUE(RpcMessage::fromFrames(m.toFrames(), out)) << len;
        EXPECT_EQ(out.payload(), m.payload()) << len;
    }
}

TEST(Wire, ChecksumDetectsCorruption)
{
    RpcMessage m = makeMsg(100);
    auto frames = m.toFrames();
    frames[1].corruptPayloadByte(5);
    RpcMessage out;
    EXPECT_FALSE(RpcMessage::fromFrames(frames, out));
}

TEST(Wire, RejectsFrameCountMismatch)
{
    RpcMessage m = makeMsg(100);
    auto frames = m.toFrames();
    frames.pop_back();
    RpcMessage out;
    EXPECT_FALSE(RpcMessage::fromFrames(frames, out));
}

TEST(Wire, RejectsShuffledFrames)
{
    RpcMessage m = makeMsg(100);
    auto frames = m.toFrames();
    std::swap(frames[0], frames[1]);
    RpcMessage out;
    EXPECT_FALSE(RpcMessage::fromFrames(frames, out));
}

TEST(Wire, PayloadAsPodRoundTrip)
{
    struct Pod
    {
        std::uint32_t a;
        std::uint64_t b;
    } in{7, 1234567890123ull};
    auto m = RpcMessage::ofPod(1, 2, 3, MsgType::Response, in);
    Pod out{};
    ASSERT_TRUE(m.payloadAs(out));
    EXPECT_EQ(out.a, in.a);
    EXPECT_EQ(out.b, in.b);
    std::uint16_t wrong = 0;
    EXPECT_FALSE(m.payloadAs(wrong));
}

TEST(Reassembler, SingleFrameFastPath)
{
    Reassembler r;
    RpcMessage m = makeMsg(40), out;
    ASSERT_TRUE(r.push(m.toFrames()[0], out));
    EXPECT_EQ(out.payload(), m.payload());
    EXPECT_EQ(r.inFlight(), 0u);
}

TEST(Reassembler, MultiFrameCompletesOnLastFrame)
{
    Reassembler r;
    RpcMessage m = makeMsg(130), out;
    auto frames = m.toFrames();
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_FALSE(r.push(frames[0], out));
    EXPECT_EQ(r.inFlight(), 1u);
    EXPECT_FALSE(r.push(frames[1], out));
    ASSERT_TRUE(r.push(frames[2], out));
    EXPECT_EQ(out.payload(), m.payload());
    EXPECT_EQ(r.inFlight(), 0u);
}

TEST(Reassembler, InterleavedMessagesFromDifferentRpcs)
{
    Reassembler r;
    RpcMessage a = makeMsg(96, 1, 1); // exactly two frames each
    RpcMessage b = makeMsg(96, 1, 2);
    auto fa = a.toFrames(), fb = b.toFrames();
    RpcMessage out;
    EXPECT_FALSE(r.push(fa[0], out));
    EXPECT_FALSE(r.push(fb[0], out));
    EXPECT_EQ(r.inFlight(), 2u);
    ASSERT_TRUE(r.push(fa[1], out));
    EXPECT_EQ(out.rpcId(), 1u);
    ASSERT_TRUE(r.push(fb[1], out));
    EXPECT_EQ(out.rpcId(), 2u);
}

TEST(Reassembler, OutOfSequenceFrameDropsPartial)
{
    Reassembler r;
    RpcMessage m = makeMsg(130), out;
    auto frames = m.toFrames();
    EXPECT_FALSE(r.push(frames[0], out));
    EXPECT_FALSE(r.push(frames[2], out)); // skipped frame 1
    EXPECT_EQ(r.malformed(), 1u);
    EXPECT_EQ(r.inFlight(), 0u);
}

TEST(Reassembler, ResendAfterTruncatedCopyReassembles)
{
    // An RX-ring overflow kept only frames 0-2 of a 5-frame message;
    // the whole message is then resent under the same RPC id.  The
    // resend's first frame discards the stale partial (counted once)
    // and the resend itself reassembles.
    Reassembler r;
    RpcMessage m = makeMsg(200), out;
    auto frames = m.toFrames();
    ASSERT_EQ(frames.size(), 5u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_FALSE(r.push(frames[i], out));
    for (std::size_t i = 0; i + 1 < frames.size(); ++i)
        EXPECT_FALSE(r.push(frames[i], out));
    ASSERT_TRUE(r.push(frames.back(), out));
    EXPECT_EQ(out.payload(), m.payload());
    EXPECT_EQ(r.malformed(), 1u);
    EXPECT_EQ(r.inFlight(), 0u);
}

// The reassembler keeps the message it is assembling out of its hash
// map, so consecutive frames of one RPC hit it directly.  The next
// three tests drive both homes — the direct slot and the map — through
// interleaving, stale partials and out-of-sequence frames.

TEST(Reassembler, DirectHitWithTwoRpcsInterleavedOnOneRing)
{
    Reassembler r;
    RpcMessage a = makeMsg(130, 1, 1), b = makeMsg(140, 1, 2);
    RpcMessage c = makeMsg(100, 1, 3), out;
    auto fa = a.toFrames(), fb = b.toFrames(), fc = c.toFrames();
    ASSERT_EQ(fa.size(), 3u);
    ASSERT_EQ(fb.size(), 3u);
    ASSERT_EQ(fc.size(), 3u);
    // a takes the direct slot, b the map.
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_FALSE(r.push(fa[i], out));
        EXPECT_FALSE(r.push(fb[i], out));
    }
    EXPECT_EQ(r.inFlight(), 2u);
    ASSERT_TRUE(r.push(fa[2], out));
    EXPECT_EQ(out.rpcId(), 1u);
    EXPECT_EQ(out.payload(), a.payload());
    // c reuses the freed direct slot while b is still in the map.
    EXPECT_FALSE(r.push(fc[0], out));
    EXPECT_EQ(r.inFlight(), 2u);
    ASSERT_TRUE(r.push(fb[2], out));
    EXPECT_EQ(out.rpcId(), 2u);
    EXPECT_EQ(out.payload(), b.payload());
    EXPECT_FALSE(r.push(fc[1], out));
    ASSERT_TRUE(r.push(fc[2], out));
    EXPECT_EQ(out.rpcId(), 3u);
    EXPECT_EQ(out.payload(), c.payload());
    EXPECT_EQ(r.inFlight(), 0u);
    EXPECT_EQ(r.malformed(), 0u);
}

TEST(Reassembler, DirectHitStalePartialThenResend)
{
    Reassembler r;
    RpcMessage a = makeMsg(200, 1, 1), b = makeMsg(200, 1, 2), out;
    auto fa = a.toFrames(), fb = b.toFrames();
    ASSERT_EQ(fa.size(), 5u);
    // Truncated copies: a in the direct slot, b in the map.
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_FALSE(r.push(fa[i], out));
        EXPECT_FALSE(r.push(fb[i], out));
    }
    // Both are resent whole, interleaved; each first frame discards
    // its own stale partial, counted once.
    for (std::size_t i = 0; i + 1 < fa.size(); ++i) {
        EXPECT_FALSE(r.push(fb[i], out));
        EXPECT_FALSE(r.push(fa[i], out));
    }
    EXPECT_EQ(r.malformed(), 2u);
    EXPECT_EQ(r.inFlight(), 2u);
    ASSERT_TRUE(r.push(fa.back(), out));
    EXPECT_EQ(out.payload(), a.payload());
    ASSERT_TRUE(r.push(fb.back(), out));
    EXPECT_EQ(out.payload(), b.payload());
    EXPECT_EQ(r.malformed(), 2u);
    EXPECT_EQ(r.inFlight(), 0u);
}

TEST(Reassembler, DirectHitOutOfSequenceFrame)
{
    Reassembler r;
    RpcMessage a = makeMsg(130, 1, 1), b = makeMsg(130, 1, 2), out;
    auto fa = a.toFrames(), fb = b.toFrames();
    // A gap in the map-held message drops it and leaves the direct one.
    EXPECT_FALSE(r.push(fa[0], out));
    EXPECT_FALSE(r.push(fb[0], out));
    EXPECT_FALSE(r.push(fb[2], out));
    EXPECT_EQ(r.malformed(), 1u);
    EXPECT_EQ(r.inFlight(), 1u);
    EXPECT_FALSE(r.push(fa[1], out));
    ASSERT_TRUE(r.push(fa[2], out));
    EXPECT_EQ(out.payload(), a.payload());
    // A gap in the direct message drops it; a later message then
    // reassembles in the same slot.
    EXPECT_FALSE(r.push(fb[0], out));
    EXPECT_FALSE(r.push(fb[2], out));
    EXPECT_EQ(r.malformed(), 2u);
    EXPECT_EQ(r.inFlight(), 0u);
    // A non-first frame of an unknown message starts nothing.
    EXPECT_FALSE(r.push(fb[1], out));
    EXPECT_EQ(r.malformed(), 3u);
    EXPECT_EQ(r.inFlight(), 0u);
    for (std::size_t i = 0; i + 1 < fa.size(); ++i)
        EXPECT_FALSE(r.push(fa[i], out));
    ASSERT_TRUE(r.push(fa.back(), out));
    EXPECT_EQ(out.payload(), a.payload());
    EXPECT_EQ(r.malformed(), 3u);
}

TEST(Wire, BurstStorageIsRecycledByExactSize)
{
    std::vector<Frame> burst = takeBurst(3);
    EXPECT_TRUE(burst.empty());
    ASSERT_EQ(burst.capacity(), 3u);
    makeMsg(100).appendFrames(burst);
    const Frame *storage = burst.data();
    recycleBurst(std::move(burst));
    // Only a batch of the same size gets the storage back, empty.
    EXPECT_EQ(takeBurst(2).capacity(), 2u);
    std::vector<Frame> again = takeBurst(3);
    EXPECT_EQ(again.data(), storage);
    EXPECT_TRUE(again.empty());
    // Larger batches get exactly their size (and are never kept).
    EXPECT_EQ(takeBurst(kBurstFrames + 1).capacity(), kBurstFrames + 1);
}

TEST(Reassembler, RequestAndResponseWithSameIdsDoNotCollide)
{
    Reassembler r;
    RpcMessage req = makeMsg(100, 5, 5, 1, MsgType::Request);
    RpcMessage rsp = makeMsg(100, 5, 5, 1, MsgType::Response);
    RpcMessage out;
    EXPECT_FALSE(r.push(req.toFrames()[0], out));
    EXPECT_FALSE(r.push(rsp.toFrames()[0], out));
    EXPECT_EQ(r.inFlight(), 2u);
}

} // namespace
