/**
 * @file
 * sim::RingQueue against a std::deque oracle: randomized push/pop/
 * front/back across growth and wrap-around, a move-only element, and
 * element lifetimes (every construction matched by one destruction,
 * including queues destroyed non-empty and moved-from queues).
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "sim/ring_queue.hh"
#include "sim/rng.hh"

namespace {

using dagger::sim::RingQueue;
using dagger::sim::Rng;

class RingQueueOracle : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RingQueueOracle, MatchesDequeAcrossGrowthAndWrap)
{
    Rng rng(GetParam());
    RingQueue<std::uint64_t> ring;
    std::deque<std::uint64_t> oracle;
    std::uint64_t next = 0;
    for (int step = 0; step < 20000; ++step) {
        // Phases drift the push probability so the queue repeatedly
        // fills past its capacity (growth) and drains while its head
        // is mid-storage (wrap-around).
        const double push_p = (step / 1000) % 2 == 0 ? 0.7 : 0.35;
        if (oracle.empty() || rng.chance(push_p)) {
            const std::size_t burst = 1 + rng.range(5);
            for (std::size_t i = 0; i < burst; ++i) {
                ring.push_back(next);
                oracle.push_back(next);
                ++next;
            }
        } else {
            ring.pop_front();
            oracle.pop_front();
        }
        ASSERT_EQ(ring.size(), oracle.size());
        ASSERT_EQ(ring.empty(), oracle.empty());
        if (oracle.empty())
            continue;
        ASSERT_EQ(ring.front(), oracle.front());
        ASSERT_EQ(ring.back(), oracle.back());
        // Capacity is a power of two and only ever covers the size.
        ASSERT_GE(ring.capacity(), ring.size());
        ASSERT_EQ(ring.capacity() & (ring.capacity() - 1), 0u);
    }
    EXPECT_GT(next, 1000u);
    // Drain both: the whole sequence matches, not just its ends.
    while (!oracle.empty()) {
        ASSERT_EQ(ring.front(), oracle.front());
        ring.pop_front();
        oracle.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingQueueOracle,
                         ::testing::Values(1u, 7u, 42u, 5151u, 99991u));

TEST(RingQueue, GrowsOnlyToItsHighWater)
{
    RingQueue<int> ring;
    for (int i = 0; i < 100; ++i)
        ring.push_back(i);
    const std::size_t cap = ring.capacity();
    EXPECT_EQ(cap, 128u);
    // A sliding window below the high-water mark wraps around the
    // storage forever without reallocating.
    for (int i = 100; i < 10000; ++i) {
        ring.push_back(i);
        ring.pop_front();
        ASSERT_EQ(ring.front(), i - 99);
    }
    EXPECT_EQ(ring.capacity(), cap);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), cap);
}

TEST(RingQueue, ReserveKeepsOrder)
{
    RingQueue<int> ring;
    for (int i = 0; i < 6; ++i)
        ring.push_back(i);
    ring.pop_front();
    ring.pop_front();
    for (int i = 6; i < 10; ++i)
        ring.push_back(i); // wraps in the 8-slot storage
    ring.reserve(100);
    EXPECT_EQ(ring.capacity(), 128u);
    ASSERT_EQ(ring.size(), 8u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(ring.front(), i + 2);
        ring.pop_front();
    }
}

TEST(RingQueue, MoveOnlyElements)
{
    RingQueue<std::unique_ptr<int>> ring;
    for (int i = 0; i < 50; ++i)
        ring.push_back(std::make_unique<int>(i));
    for (int i = 0; i < 20; ++i) {
        std::unique_ptr<int> p = std::move(ring.front());
        ring.pop_front();
        ASSERT_EQ(*p, i);
    }
    ring.emplace_back(std::make_unique<int>(50));
    EXPECT_EQ(*ring.back(), 50);

    RingQueue<std::unique_ptr<int>> moved(std::move(ring));
    EXPECT_TRUE(ring.empty());
    ASSERT_EQ(moved.size(), 31u);
    EXPECT_EQ(*moved.front(), 20);
    ring = std::move(moved);
    EXPECT_TRUE(moved.empty());
    EXPECT_EQ(*ring.front(), 20);
    // A moved-from queue stays usable.
    moved.push_back(std::make_unique<int>(7));
    EXPECT_EQ(*moved.front(), 7);
}

/** Counts live instances; every construction must be destroyed once. */
struct Tracked
{
    static inline int constructed = 0;
    static inline int destroyed = 0;

    int value;

    explicit Tracked(int v) : value(v) { ++constructed; }
    Tracked(const Tracked &o) : value(o.value) { ++constructed; }
    Tracked(Tracked &&o) noexcept : value(o.value) { ++constructed; }
    Tracked &operator=(const Tracked &) = default;
    Tracked &operator=(Tracked &&) noexcept = default;
    ~Tracked() { ++destroyed; }

    static int live() { return constructed - destroyed; }
};

TEST(RingQueue, LifetimesBalanceIncludingNonEmptyAndMovedFrom)
{
    Tracked::constructed = Tracked::destroyed = 0;
    {
        RingQueue<Tracked> ring;
        for (int i = 0; i < 40; ++i) // three growth relocations
            ring.emplace_back(i);
        EXPECT_EQ(Tracked::live(), 40);
        for (int i = 0; i < 15; ++i)
            ring.pop_front();
        EXPECT_EQ(Tracked::live(), 25);

        RingQueue<Tracked> taken(std::move(ring));
        EXPECT_EQ(Tracked::live(), 25);
        RingQueue<Tracked> other;
        other.emplace_back(-1);
        other = std::move(taken); // destroys other's one element
        EXPECT_EQ(Tracked::live(), 25);
        EXPECT_EQ(other.front().value, 15);

        const Tracked copy(99);
        ring.push_back(copy); // the moved-from queue is reusable
        EXPECT_EQ(Tracked::live(), 27);
        // ring (1), taken (0), other (25) and copy go out of scope
        // non-empty.
    }
    EXPECT_EQ(Tracked::live(), 0);
    EXPECT_EQ(Tracked::constructed, Tracked::destroyed);
}

} // namespace
