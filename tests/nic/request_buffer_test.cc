/**
 * @file
 * Request buffer (Fig. 9B) tests: slot recycling, per-flow FIFO order,
 * backpressure when the free slots run out, the stall limit, and a
 * randomized comparison against a reference model of the slot table
 * (table + free-slot FIFO + per-flow slot FIFOs + per-flow stall
 * queues) the buffer's counting form replaces.
 */

#include <gtest/gtest.h>

#include <deque>
#include <initializer_list>
#include <vector>

#include "nic/request_buffer.hh"
#include "sim/rng.hh"

namespace {

using namespace dagger;
using namespace dagger::nic;

constexpr std::size_t kStall = 8192;

proto::Frame
frameWithTag(std::uint8_t tag)
{
    proto::Frame f;
    f.header.rpcId = tag;
    f.setPayload(&tag, 1);
    return f;
}

/** One message of frames tagged @p tags. */
std::vector<proto::Frame>
message(std::initializer_list<std::uint8_t> tags)
{
    std::vector<proto::Frame> frames;
    for (std::uint8_t t : tags)
        frames.push_back(frameWithTag(t));
    return frames;
}

TEST(RequestBuffer, PushPopRoundTrip)
{
    RequestBuffer rb(8, 2, kStall);
    ASSERT_TRUE(rb.push(0, message({1})));
    ASSERT_TRUE(rb.push(0, message({2})));
    EXPECT_EQ(rb.flowDepth(0), 2u);
    EXPECT_EQ(rb.freeSlots(), 6u);
    auto out = rb.pop(0, 2);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].payloadByte(0), 1);
    EXPECT_EQ(out[1].payloadByte(0), 2);
    EXPECT_EQ(rb.freeSlots(), 8u);
}

TEST(RequestBuffer, FlowsAreIndependent)
{
    RequestBuffer rb(8, 2, kStall);
    rb.push(0, message({1}));
    rb.push(1, message({2}));
    EXPECT_EQ(rb.flowDepth(0), 1u);
    EXPECT_EQ(rb.flowDepth(1), 1u);
    auto out = rb.pop(1, 4);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].payloadByte(0), 2);
    EXPECT_EQ(rb.flowDepth(0), 1u);
}

TEST(RequestBuffer, BackpressureWhenFull)
{
    RequestBuffer rb(2, 1, kStall);
    EXPECT_TRUE(rb.push(0, message({1, 2})));
    EXPECT_EQ(rb.freeSlots(), 0u);
    // No free slot: the next frame stalls behind the table instead of
    // taking a slot, and the flow scheduler cannot see it yet.
    EXPECT_TRUE(rb.push(0, message({3})));
    EXPECT_EQ(rb.flowDepth(0), 2u);
    EXPECT_EQ(rb.stalled(0), 1u);
    EXPECT_EQ(rb.pushes(), 2u);
    rb.pop(0, 1);
    // The freed slot goes straight to the stalled frame.
    EXPECT_EQ(rb.flowDepth(0), 2u);
    EXPECT_EQ(rb.stalled(0), 0u);
    EXPECT_EQ(rb.freeSlots(), 0u);
    EXPECT_EQ(rb.pushes(), 3u);
    EXPECT_EQ(rb.rejections(), 0u);
}

TEST(RequestBuffer, RejectsBeyondTheStallLimit)
{
    RequestBuffer rb(2, 1, 3);
    EXPECT_TRUE(rb.push(0, message({1, 2})));
    EXPECT_TRUE(rb.push(0, message({3, 4})));
    // Two stalled frames plus two more would exceed the limit of 3.
    auto big = message({5, 6});
    EXPECT_FALSE(rb.push(0, std::move(big)));
    EXPECT_EQ(big.size(), 2u) << "a rejected message stays with the caller";
    EXPECT_EQ(rb.rejections(), 1u);
    EXPECT_EQ(rb.stalled(0), 2u);
    EXPECT_TRUE(rb.push(0, message({5})));
    EXPECT_EQ(rb.stalled(0), 3u);
}

TEST(RequestBuffer, SlotsRecycleIndefinitely)
{
    RequestBuffer rb(4, 1, kStall);
    for (int round = 0; round < 1000; ++round) {
        ASSERT_TRUE(rb.push(0, message({static_cast<std::uint8_t>(round)})));
        auto out = rb.pop(0, 1);
        ASSERT_EQ(out.size(), 1u);
        ASSERT_EQ(out[0].payloadByte(0), round & 0xff);
    }
    EXPECT_EQ(rb.freeSlots(), 4u);
    EXPECT_EQ(rb.pushes(), 1000u);
}

TEST(RequestBuffer, PopMoreThanDepthReturnsWhatExists)
{
    RequestBuffer rb(4, 1, kStall);
    rb.push(0, message({9}));
    auto out = rb.pop(0, 10);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_TRUE(rb.pop(0, 1).empty());
}

TEST(RequestBufferDeath, BadFlowPanics)
{
    RequestBuffer rb(4, 2, kStall);
    EXPECT_DEATH(rb.push(5, message({0})), "bad flow");
}

/**
 * The slot-table form of the request buffer, as the NIC drove it: a
 * table of frames, a free-slot FIFO, per-flow FIFOs of slot ids, and
 * a per-flow ingress stall queue that drains into the table whenever
 * that flow is steered to or posted from.
 */
class SlotTableModel
{
  public:
    SlotTableModel(std::size_t slots, unsigned flows, std::size_t stall)
        : _table(slots), _flowFifos(flows), _ingress(flows), _stall(stall)
    {
        for (std::size_t s = 0; s < slots; ++s)
            _freeFifo.push_back(s);
    }

    bool
    steer(unsigned flow, const std::vector<std::uint32_t> &tags)
    {
        auto &ingress = _ingress[flow];
        if (ingress.size() + tags.size() > _stall) {
            ++_drops;
            return false;
        }
        if (ingress.empty() && _freeFifo.size() >= tags.size()) {
            for (std::uint32_t t : tags)
                push(flow, t);
        } else {
            ingress.insert(ingress.end(), tags.begin(), tags.end());
            drain(flow);
        }
        return true;
    }

    std::vector<std::uint32_t>
    post(unsigned flow, std::size_t n)
    {
        auto &fifo = _flowFifos[flow];
        std::vector<std::uint32_t> out;
        while (out.size() < n && !fifo.empty()) {
            const std::size_t slot = fifo.front();
            fifo.pop_front();
            out.push_back(_table[slot]);
            _freeFifo.push_back(slot);
        }
        drain(flow);
        return out;
    }

    std::size_t freeSlots() const { return _freeFifo.size(); }
    std::size_t depth(unsigned flow) const { return _flowFifos[flow].size(); }
    std::size_t stalled(unsigned flow) const { return _ingress[flow].size(); }
    std::uint64_t pushes() const { return _pushes; }
    std::uint64_t drops() const { return _drops; }

  private:
    void
    push(unsigned flow, std::uint32_t tag)
    {
        const std::size_t slot = _freeFifo.front();
        _freeFifo.pop_front();
        _table[slot] = tag;
        _flowFifos[flow].push_back(slot);
        ++_pushes;
    }

    void
    drain(unsigned flow)
    {
        auto &ingress = _ingress[flow];
        while (!ingress.empty() && !_freeFifo.empty()) {
            push(flow, ingress.front());
            ingress.pop_front();
        }
    }

    std::vector<std::uint32_t> _table;
    std::deque<std::size_t> _freeFifo;
    std::vector<std::deque<std::size_t>> _flowFifos;
    std::vector<std::deque<std::uint32_t>> _ingress;
    std::size_t _stall;
    std::uint64_t _pushes = 0;
    std::uint64_t _drops = 0;
};

class RequestBufferProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RequestBufferProperty, MatchesTheSlotTableModel)
{
    // Small table and stall limit so that stalls, partial admissions
    // and drops at the limit all happen often.
    const unsigned flows = 3 + static_cast<unsigned>(GetParam() % 3);
    const std::size_t slots = 4 * flows;
    const std::size_t stall = 24;
    RequestBuffer rb(slots, flows, stall);
    SlotTableModel model(slots, flows, stall);
    sim::Rng rng(GetParam());
    std::uint32_t next_tag = 0;

    auto check = [&](const char *op, int step) {
        ASSERT_EQ(rb.freeSlots(), model.freeSlots()) << op << " @" << step;
        ASSERT_EQ(rb.pushes(), model.pushes()) << op << " @" << step;
        ASSERT_EQ(rb.rejections(), model.drops()) << op << " @" << step;
        for (unsigned f = 0; f < flows; ++f) {
            ASSERT_EQ(rb.flowDepth(f), model.depth(f)) << op << " @" << step;
            ASSERT_EQ(rb.stalled(f), model.stalled(f)) << op << " @" << step;
        }
    };
    auto popBoth = [&](unsigned flow, std::size_t n, int step) {
        const auto want = model.post(flow, n);
        const auto got = rb.pop(flow, n);
        ASSERT_EQ(got.size(), want.size()) << "pop @" << step;
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i].header.rpcId, want[i]) << "pop @" << step;
    };

    for (int step = 0; step < 4000; ++step) {
        const auto flow = static_cast<unsigned>(rng.range(flows));
        const auto kind = rng.range(10);
        if (kind < 5) {
            // Steer one message of 1..12 frames.
            const auto n = static_cast<std::size_t>(rng.between(1, 12));
            std::vector<std::uint32_t> tags;
            std::vector<proto::Frame> frames;
            for (std::size_t i = 0; i < n; ++i) {
                tags.push_back(next_tag);
                proto::Frame f;
                f.header.rpcId = next_tag++;
                frames.push_back(f);
            }
            const bool accepted = model.steer(flow, tags);
            ASSERT_EQ(rb.push(flow, std::move(frames)), accepted)
                << "steer @" << step;
            check("steer", step);
        } else if (kind < 9) {
            // Post a batch of 1..16 frames (may ask for more than the
            // flow holds).
            popBoth(flow, static_cast<std::size_t>(rng.between(1, 16)), step);
            check("post", step);
        } else {
            // Drain the flow: post B = 4 batches until it holds no
            // slot, streaming its stalled frames through the table.
            while (model.depth(flow) > 0)
                popBoth(flow, 4, step);
            check("drain", step);
        }
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(rb.rejections(), 0u) << "the stall limit was never reached";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RequestBufferProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

} // namespace
