/**
 * @file
 * Randomized ordering properties of the cascading event scheduler.
 *
 * The calendar rewrite (current-frame timing wheel + parked future
 * frames + far-future heap, docs/PERF.md) is only admissible if it
 * executes events in exactly the old single-heap order: (tick,
 * priority, insertion sequence).  These tests pit the real EventQueue
 * against two independent reference models — a std::stable_sort of
 * the schedule requests and a minimal priority-queue engine mirroring
 * the seed implementation — on Rng-seeded workloads that straddle
 * every boundary the calendar introduces: bucket edges, frame edges,
 * the far-heap horizon, and same-tick events split across levels.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using dagger::sim::EventQueue;
using dagger::sim::Priority;
using dagger::sim::Rng;
using dagger::sim::Tick;

constexpr Tick kBucket = Tick{1} << EventQueue::kBucketBits;
constexpr Tick kFrame = kBucket * EventQueue::kWheelBuckets;
constexpr Tick kFarHorizon = kFrame * EventQueue::kFrames;

Priority
pickPriority(std::uint64_t r)
{
    switch (r % 3) {
    case 0:
        return Priority::Hardware;
    case 1:
        return Priority::Default;
    default:
        return Priority::Software;
    }
}

/**
 * Minimal replica of the seed engine: one binary heap ordered by
 * (tick, priority, sequence).  Kept deliberately dumb so it can serve
 * as an independent oracle for the calendar scheduler.
 */
class RefQueue
{
  public:
    Tick now() const { return _now; }

    void
    schedule(Tick delay, std::function<void()> fn,
             Priority prio = Priority::Default)
    {
        _heap.push(Ev{_now + delay, static_cast<std::uint32_t>(prio),
                      _seq++, std::move(fn)});
    }

    void
    runAll()
    {
        while (!_heap.empty()) {
            Ev ev = _heap.top();
            _heap.pop();
            _now = ev.when;
            ev.fn();
        }
    }

  private:
    struct Ev
    {
        Tick when;
        std::uint32_t prio;
        std::uint64_t seq;
        std::function<void()> fn;
    };
    struct Later
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };
    Tick _now = 0;
    std::uint64_t _seq = 0;
    std::priority_queue<Ev, std::vector<Ev>, Later> _heap;
};

/** A random delay landing inside, at, or beyond the calendar edges. */
Tick
pickDelay(std::uint64_t r)
{
    switch ((r >> 40) % 5) {
    case 0: // same-bucket churn
        return r % kBucket;
    case 1: // exact bucket boundaries, including delay 0
        return (r % (2 * EventQueue::kWheelBuckets)) * kBucket;
    case 2: // the current-frame/parked-frame admission edge itself
        return kFrame - 2 + (r % 5);
    case 3: // later frames and past the far-heap horizon
        return kFrame + r % (2 * kFarHorizon);
    default: // generic near future
        return r % kFrame;
    }
}

/**
 * A sparse delay: 65-4095 buckets plus a sub-bucket offset, so the
 * next event usually lies one or more 64-bucket bitmap words past the
 * scan position; a few land in the same bucket or in a later frame.
 */
Tick
pickSparseDelay(std::uint64_t r)
{
    switch ((r >> 40) % 8) {
    case 0: // same-bucket follow-up
        return r % kBucket;
    case 1: // next frame or two
        return kFrame + r % (2 * kFrame);
    default: // 65..4095 buckets out: at least one whole bitmap word
        return (65 + r % (EventQueue::kWheelBuckets - 65)) * kBucket +
            (r >> 20) % kBucket;
    }
}

/**
 * Run a self-scheduling trace on the real engine and on the reference
 * heap engine: @p chains chains start @p spacing ticks apart, and every
 * event draws its successor's (delay, priority) from one seeded Rng.
 * The (id, now) execution logs must be identical.
 */
EventQueue::EngineStats
expectTraceMatchesReference(int chains, Tick spacing,
                            Tick (*pick)(std::uint64_t), std::uint64_t seed)
{
    constexpr int kTarget = 20000;

    auto trace = [&](auto &queue) {
        Rng rng(seed);
        std::vector<std::pair<int, Tick>> log;
        int budget = kTarget;
        std::function<void(int)> step = [&](int id) {
            log.emplace_back(id, queue.now());
            if (--budget <= 0)
                return;
            const std::uint64_t r = rng.next64();
            queue.schedule(pick(r), [&step, id] { step(id); },
                           pickPriority(r >> 13));
        };
        for (int c = 0; c < chains; ++c)
            queue.schedule(static_cast<Tick>(c) * spacing,
                           [&step, c] { step(c); }, pickPriority(c));
        queue.runAll();
        return log;
    };

    EventQueue eq;
    RefQueue ref;
    const auto got = trace(eq);
    const auto want = trace(ref);
    EXPECT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        if (got[i] != want[i]) {
            ADD_FAILURE() << "divergence at step " << i << ": event "
                          << got[i].first << " at " << got[i].second
                          << ", want event " << want[i].first << " at "
                          << want[i].second;
            break;
        }
    }
    EXPECT_EQ(eq.now(), ref.now());
    return eq.stats();
}

TEST(EventOrderProperty, StaticBatchMatchesStableSortReference)
{
    // One up-front batch: the reference order is a stable sort by
    // (tick, priority); stability supplies the seq tie-break.
    Rng rng(0xdab5eed);
    constexpr int kEvents = 5000;

    struct Req
    {
        Tick when;
        std::uint32_t prio;
        int id;
    };
    std::vector<Req> reqs;
    reqs.reserve(kEvents);
    EventQueue eq;
    std::vector<int> executed;
    executed.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i) {
        const std::uint64_t r = rng.next64();
        const Tick delay = pickDelay(r);
        const Priority prio = pickPriority(r >> 13);
        reqs.push_back(
            Req{delay, static_cast<std::uint32_t>(prio), i});
        eq.schedule(delay, [&executed, i] { executed.push_back(i); },
                    prio);
    }
    std::stable_sort(reqs.begin(), reqs.end(),
                     [](const Req &a, const Req &b) {
                         if (a.when != b.when)
                             return a.when < b.when;
                         return a.prio < b.prio;
                     });
    eq.runAll();

    ASSERT_EQ(executed.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        ASSERT_EQ(executed[i], reqs[i].id) << "divergence at position " << i;
    // The batch must actually have exercised all three levels.
    EXPECT_GT(eq.stats().wheelAdmits, 0u);
    EXPECT_GT(eq.stats().frameAdmits, 0u);
    EXPECT_GT(eq.stats().heapAdmits, 0u);
}

TEST(EventOrderProperty, SelfSchedulingTraceMatchesReferenceEngine)
{
    // Dynamic workload: admissions made while `now` advances cover the
    // wheel's rotating-window arithmetic.  64 dense chains.
    expectTraceMatchesReference(64, 1, pickDelay, 0x5eed42);
}

TEST(EventOrderProperty, SameTickEventsMergeAcrossWheelAndHeap)
{
    // Same tick, three priorities, admitted to *different* levels:
    // the far event goes to the heap while `now` is 0; the other two
    // enter the wheel after its frame has cascaded (which also covers
    // the heap-to-wheel migration path).  The pop must still
    // interleave them purely by (prio, seq).
    EventQueue eq;
    const Tick target = kFarHorizon + 1000;
    std::vector<int> order;

    eq.scheduleAt(target, [&] { order.push_back(2); },
                  Priority::Software); // far heap, seq 0
    eq.scheduleAt(target - 10, [&] {
        eq.scheduleAt(target, [&] { order.push_back(1); },
                      Priority::Hardware); // wheel
        eq.scheduleAt(target, [&] { order.push_back(3); },
                      Priority::Software); // wheel, seq after the heap one
    });
    eq.runAll();

    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), target);
    // The helper at target-10 and logger 2 were both beyond the far
    // horizon when scheduled; loggers 1 and 3 entered the wheel.
    EXPECT_EQ(eq.stats().heapAdmits, 2u);
    EXPECT_EQ(eq.stats().wheelAdmits, 2u);
    EXPECT_EQ(eq.stats().frameAdmits, 0u);
}

TEST(EventOrderProperty, SameTickEventsMergeAcrossWheelAndFrame)
{
    // The level-2 variant of the test above: the early events park in
    // a future frame; the late ones enter the wheel after the frame
    // cascades.  Order is still purely (prio, seq).
    EventQueue eq;
    const Tick target = kFrame + 1000;
    std::vector<int> order;

    eq.scheduleAt(target, [&] { order.push_back(2); },
                  Priority::Software); // parked frame, seq 0
    eq.scheduleAt(target - 10, [&] {
        eq.scheduleAt(target, [&] { order.push_back(1); },
                      Priority::Hardware); // wheel
        eq.scheduleAt(target, [&] { order.push_back(3); },
                      Priority::Software); // wheel, seq after the parked one
    });
    eq.runAll();

    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), target);
    EXPECT_EQ(eq.stats().frameAdmits, 2u);
    EXPECT_EQ(eq.stats().wheelAdmits, 2u);
    EXPECT_EQ(eq.stats().heapAdmits, 0u);
}

TEST(EventOrderProperty, RunUntilEdgeTicksAtBucketAndFrameBoundaries)
{
    // Inclusive runUntil semantics at the exact ticks the calendar
    // arithmetic cares about: bucket edges, the frame edge (where
    // cascading happens), and the far-heap horizon.
    const std::vector<Tick> edges = {
        kBucket - 1,      kBucket,      kBucket + 1,
        7 * kBucket - 1,  7 * kBucket,  7 * kBucket + 1,
        kFrame - 1,       kFrame,       kFrame + 1,
        kFarHorizon - 1,  kFarHorizon,  kFarHorizon + 1,
    };
    EventQueue eq;
    std::vector<Tick> fired;
    for (Tick t : edges)
        eq.scheduleAt(t, [&fired, t] { fired.push_back(t); });

    eq.runUntil(kBucket);
    EXPECT_EQ(fired, (std::vector<Tick>{kBucket - 1, kBucket}));
    EXPECT_EQ(eq.now(), kBucket);

    eq.runUntil(7 * kBucket - 1);
    EXPECT_EQ(fired.size(), 4u);
    EXPECT_EQ(fired.back(), 7 * kBucket - 1);

    eq.runUntil(kFrame + 1);
    EXPECT_EQ(fired.size(), 9u);
    EXPECT_EQ(fired.back(), kFrame + 1);
    EXPECT_EQ(eq.now(), kFrame + 1);

    eq.runUntil(kFarHorizon + 1);
    EXPECT_EQ(fired.size(), edges.size());
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(eq.now(), kFarHorizon + 1);
    EXPECT_TRUE(eq.empty());
}

TEST(EventOrderProperty, SparseSelfSchedulingTraceMatchesReferenceEngine)
{
    // Few concurrent chains with wide gaps: most pops must search the
    // occupancy bitmap across words (and across frame cascades into a
    // wheel that just emptied) rather than find the next event at the
    // scan position.
    const auto stats = expectTraceMatchesReference(3, 100 * kBucket,
                                                   pickSparseDelay, 0x5a4e5e);
    EXPECT_GT(stats.frameAdmits, 0u);
}

TEST(EventOrderProperty, DrainedSortedBucketIsReadmitted)
{
    // The scan sorts bucket b, pops its only event, and that event
    // schedules new ones back into b (now empty, still _sortedAbs):
    // the first re-admission appends to the empty bucket, the next
    // ones insert in sorted position.  The order must see the refilled
    // bucket, and then skip the sparse gap to the far-away event.
    EventQueue eq;
    const Tick t = 700 * kBucket + 10;
    const Tick far = 3900 * kBucket + 7;
    std::vector<int> order;
    auto log = [&](int id) { order.push_back(id); };
    eq.scheduleAt(far, [&] { log(9); });
    eq.scheduleAt(t, [&] {
        log(0);
        eq.scheduleAt(t + 1, [&] { log(2); }, Priority::Software);
        eq.scheduleAt(t + 2, [&] { log(3); }, Priority::Hardware);
        eq.scheduleAt(t + 1, [&] { log(1); }, Priority::Hardware);
    });

    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 9}));
    EXPECT_EQ(eq.now(), far);
}

TEST(EventOrderProperty, FrameCascadeIntoEmptiedWheel)
{
    // Frame 0 uses high slots and then empties completely; frame 3's
    // parked events cascade into the emptied wheel at slots both below
    // and above the ones frame 0 used.  A stale occupancy bit left by
    // frame 0 would point the search at an empty bucket.
    EventQueue eq;
    std::vector<Tick> fired;
    auto at = [&](Tick when) {
        eq.scheduleAt(when, [&fired, &eq] { fired.push_back(eq.now()); });
    };
    for (Tick slot : {100, 1000, 4000})
        at(slot * kBucket + 3);
    const Tick base = 3 * kFrame;
    for (Tick slot : {50, 99, 100, 101, 2000, 4095})
        at(base + slot * kBucket + 1);

    eq.runAll();
    ASSERT_EQ(fired.size(), 9u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(fired[3], base + 50 * kBucket + 1);
    EXPECT_EQ(fired.back(), base + 4095 * kBucket + 1);
    EXPECT_EQ(eq.stats().frameAdmits, 6u);
}

TEST(EventOrderProperty, SteadyStateSchedulingIsAllocationFree)
{
    // Acceptance check for the event pool: after warmup, scheduling
    // member-function + `this` sized closures is served entirely from
    // the free list — no fresh block carves, no new pool blocks.
    EventQueue eq;
    std::uint64_t count = 0;
    constexpr int kBatch = 1000;
    auto pump = [&] {
        for (int i = 0; i < kBatch; ++i)
            eq.schedule(1 + i % 64, [&count] { ++count; },
                        pickPriority(static_cast<std::uint64_t>(i)));
        eq.runAll();
    };
    pump(); // warmup: carves blocks, then drains them into the free list
    const auto warm = eq.stats();
    EXPECT_GT(warm.poolMisses, 0u);
    EXPECT_GT(warm.poolBlocks, 0u);

    for (int round = 0; round < 5; ++round)
        pump();
    const auto &after = eq.stats();
    EXPECT_EQ(after.poolMisses, warm.poolMisses)
        << "steady-state scheduling carved fresh pool events";
    EXPECT_EQ(after.poolBlocks, warm.poolBlocks)
        << "steady-state scheduling allocated new pool blocks";
    EXPECT_EQ(after.poolHits, warm.poolHits + 5u * kBatch);
    EXPECT_EQ(count, 6u * kBatch);

    // And the closures themselves stay in EventClosure's inline buffer.
    auto small = [&count] { ++count; };
    static_assert(dagger::sim::EventClosure::fitsInline<decltype(small)>());
    dagger::sim::EventClosure held(std::move(small));
    EXPECT_TRUE(held.inlineStored());

    struct Fat
    {
        std::uint8_t bytes[EventQueue::kPoolBlockEvents];
        void operator()() const {}
    };
    static_assert(!dagger::sim::EventClosure::fitsInline<Fat>());
    dagger::sim::EventClosure big{Fat{}};
    EXPECT_FALSE(big.inlineStored());
}

} // namespace
