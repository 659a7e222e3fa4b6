/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are ordered by (tick, priority, insertion sequence), so two runs
 * with the same schedule order produce identical execution orders.  The
 * whole simulation runs on one OS thread; simulated concurrency (CPU
 * cores, NIC pipeline stages, the switch) is expressed purely as events.
 *
 * Internally the queue is a cascading calendar scheduler (docs/PERF.md)
 * with three levels:
 *
 *  1. a bucketed timing wheel (kWheelBuckets buckets of 2^kBucketBits
 *     ticks; unsorted append, sorted once when the scan reaches the
 *     bucket) holding ONLY events of the current *frame* — the aligned
 *     span of kWheelBuckets buckets the simulation clock sits in;
 *  2. kFrames unsorted per-frame vectors for events in later frames
 *     (append is O(1); a frame's events are bulk-admitted — "cascaded"
 *     — into the wheel exactly once, when that frame becomes current);
 *  3. one far-future heap for everything beyond the frame horizon
 *     (~1 ms); its events migrate down when their frame arrives.
 *
 * The aligned-frame split is what makes pops cheap: every level-2/3
 * event is in a strictly later frame than every wheel event, so the
 * wheel minimum IS the global minimum and a pop never merges across
 * levels and never sifts a many-thousand-entry heap.  Finding the
 * earliest nonempty bucket is scan-free: a 4096-bit occupancy bitmap
 * (one bit per bucket) is searched a word at a time with countr_zero,
 * after a check of the bucket at the scan position, which is where
 * dense workloads find their next event.  Event records are carved from a
 * free-list pool and carry a small-buffer EventClosure, so
 * steady-state scheduling of the member-function + `this` callbacks
 * that dominate the NIC/fabric models performs no heap allocation.
 * The heaps order 24-byte (tick, tie, pointer) entries whose key is
 * stored inline, so a sift touches only the contiguous heap array and
 * never chases the pooled Event.
 *
 * The dispatch order is provably identical to the old single binary
 * heap: within the current frame distinct absolute buckets map to
 * distinct slots (so the bitmap search attributes each slot to exactly
 * one bucket), a sorted bucket yields its events in (tick, priority,
 * seq) order, and cascading is pure data movement that happens before
 * any same-frame event can run.  Because the (tick, priority, seq)
 * keys are all distinct, the pop order is a property of the key set
 * alone — never of container layout or cascade order.
 */

#ifndef DAGGER_SIM_EVENT_QUEUE_HH
#define DAGGER_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_closure.hh"
#include "sim/logging.hh"
#include "sim/time.hh"

namespace dagger::sim {

/** Event callback type: move-only, 48 B of inline storage. */
using EventFn = EventClosure;

/**
 * Scheduling priority; lower values run first among same-tick events.
 * The defaults below keep hardware "before" software within a tick,
 * mirroring how the NIC commits ring entries before a polling core
 * could observe them.
 */
enum class Priority : std::uint32_t {
    Hardware = 0,
    Default = 100,
    Software = 200,
    Stats = 1000,
};

/**
 * The central event queue.  One instance per simulation.
 */
class EventQueue
{
  public:
    /** log2 of the wheel bucket width: 2^12 ps ≈ 4.1 ns per bucket. */
    static constexpr unsigned kBucketBits = 12;
    /** Bucket count (power of two); one frame ≈ 16.8 µs of sim time. */
    static constexpr std::size_t kWheelBuckets = 4096;
    /** Level-2 frame count (power of two); horizon ≈ 1.07 ms. */
    static constexpr std::size_t kFrames = 64;
    /** log2 of the frame width in ticks: frame(when) = when >> this. */
    static constexpr unsigned kFrameShift =
        kBucketBits + std::countr_zero(kWheelBuckets);
    /** Events carved per pool block. */
    static constexpr std::size_t kPoolBlockEvents = 512;

    /**
     * Allocator / scheduler counters.  All but heapClosures are
     * exported as sim.events.* gauges.
     */
    struct EngineStats
    {
        std::uint64_t poolHits = 0;    ///< events served from the free list
        std::uint64_t poolMisses = 0;  ///< events carved fresh from a block
        std::uint64_t poolBlocks = 0;  ///< pool blocks allocated
        std::uint64_t wheelAdmits = 0; ///< events admitted straight to the wheel
        std::uint64_t frameAdmits = 0; ///< events parked in a future frame
        std::uint64_t heapAdmits = 0;  ///< events admitted to the far heap
        std::uint64_t maxPending = 0;  ///< high-water mark of pending()
        /** Events whose closure outgrew EventClosure's inline buffer
         *  (one heap allocation each).  Not a registry gauge: every
         *  registry entry is part of the simulated-results digests. */
        std::uint64_t heapClosures = 0;
    };

    EventQueue() : _buckets(kWheelBuckets), _frames(kFrames) {}
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Schedule @p fn to run @p delay ticks from now. */
    void
    schedule(TickDelta delay, EventFn &&fn,
             Priority prio = Priority::Default)
    {
        scheduleAt(_now + delay, std::move(fn), prio);
    }

    /**
     * Schedule @p fn at absolute tick @p when (>= now).
     *
     * Takes the closure by rvalue reference (EventFn is move-only, so
     * every caller already passes a temporary or a moved lvalue): the
     * callable is then move-constructed exactly once, straight into the
     * pooled event slot, instead of relocating through two by-value
     * parameters on its way there.
     */
    void scheduleAt(Tick when, EventFn &&fn,
                    Priority prio = Priority::Default);

    /** True when no events remain. */
    bool
    empty() const
    {
        return _wheelCount == 0 && _frameCount == 0 && _far.empty();
    }

    /** Number of pending events. */
    std::size_t
    pending() const
    {
        return _wheelCount + _frameCount + _far.size();
    }

    /** Total events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /** Engine counters (monotonic; see EngineStats). */
    const EngineStats &stats() const { return _stats; }

    /**
     * Run the single earliest event.
     * @retval true an event ran; false the queue was empty.
     */
    bool runOne();

    /**
     * Run events until simulated time reaches @p when (inclusive of
     * events at exactly @p when) or the queue drains.  Time is advanced
     * to @p when even if the queue drains earlier.
     */
    void runUntil(Tick when);

    /** Run for a relative window. */
    void runFor(TickDelta window) { runUntil(_now + window); }

    /** Drain the queue completely (use in tests; unbounded). */
    void runAll(std::uint64_t max_events = UINT64_MAX);

  private:
    /**
     * Pooled event record: only the payload lives here.  The ordering
     * key is carried by the HeapEntry that points at it, so heap sifts
     * never touch this (cache-cold) storage.  A slot is either *live*
     * (the `fn` member holds the pending closure) or *free* (the
     * `nextFree` member links it into the free list) — overlapping the
     * two keeps the record at exactly one cache line, so the one cold
     * read a pop must do (the closure was written thousands of events
     * ago) costs a single line fill.  alloc/release switch the active
     * member explicitly with placement new / destructor calls.
     */
    union alignas(64) Event {
        Event() : nextFree(nullptr) {}
        ~Event() {}
        EventFn fn;
        Event *nextFree;
    };
    static_assert(sizeof(Event) == 64, "event slot is one cache line");

    /**
     * Heap element: the full (tick, priority, seq) key inline plus the
     * payload pointer.  `tie` packs (priority << 48) | seq — priorities
     * fit 16 bits (max enumerator is 1000) and 2^48 insertions exceed
     * any plausible run — so one integer compare resolves the whole
     * same-tick tie-break and lexicographic (when, tie) equals the
     * documented (tick, priority, seq) order exactly.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t tie;
        Event *ev;
    };

    /** Bits reserved for seq in the packed tie key. */
    static constexpr unsigned kSeqBits = 48;

    /** Strict (tick, priority, seq) order — the one total order every
     *  container here agrees on. */
    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.tie < b.tie;
    }

    /** push_heap/pop_heap comparator: max-heap on "later" keeps the
     *  earliest event at front(). */
    struct LaterEntry
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            return before(b, a);
        }
    };

    Event *allocEvent();
    void releaseEvent(Event *ev) noexcept;

    /** Push @p entry into its wheel bucket (must be in _curFrame). */
    void admitWheel(const HeapEntry &entry);

    /**
     * Make the earliest nonempty frame that starts at or before
     * @p limit current, cascading its parked events (and any far-heap
     * events of that frame) into the wheel.  Returns true when the
     * wheel holds events afterwards.
     */
    bool refill(Tick limit);

    /** Earliest nonempty wheel bucket, or nullptr; advances _scanAbs. */
    std::vector<HeapEntry> *peekWheel();

    /**
     * Absolute number of the earliest nonempty wheel bucket.  Requires
     * a nonempty wheel; checks the bucket at the scan position first
     * and searches the occupancy bitmap only when it is empty.
     */
    std::uint64_t earliestWheelBucket() const;

    /** Run the earliest event if its tick is <= @p limit. */
    bool step(Tick limit);

    Tick _now = 0;
    std::uint64_t _seq = 0;
    std::uint64_t _executed = 0;

    // Cascading scheduler state.  The wheel (_buckets) holds only
    // events whose frame (when >> kFrameShift) equals _curFrame;
    // _scanAbs is an absolute bucket number with the invariant that no
    // nonempty bucket lies below it.  Bit s of _occupied is set exactly
    // when bucket slot s is nonempty, so the next event is found by a
    // word-wise bitmap search from the scan position, never by walking
    // empty buckets.  _frames[f & (kFrames-1)] parks events of future
    // frame f unsorted; _far holds everything at least kFrames frames
    // out.  refill() keeps _curFrame <= frame(_now) at every admission,
    // which is what lets frame index alone decide the level.
    std::vector<std::vector<HeapEntry>> _buckets;
    /** 64-bit words in the occupancy bitmap (one bit per bucket). */
    static constexpr std::size_t kOccupancyWords = kWheelBuckets / 64;
    std::array<std::uint64_t, kOccupancyWords> _occupied{};
    std::size_t _wheelCount = 0;
    std::uint64_t _scanAbs = 0;
    /** Absolute bucket the scan has sorted (descending); UINT64_MAX
     *  until the first pop.  Buckets below it may be unsorted. */
    std::uint64_t _sortedAbs = UINT64_MAX;
    std::uint64_t _curFrame = 0;
    std::vector<std::vector<HeapEntry>> _frames;
    std::size_t _frameCount = 0;
    std::vector<HeapEntry> _far;

    // Event pool: bump allocation within blocks, recycled through an
    // intrusive free list.  Blocks are never returned to the OS while
    // the queue lives, so Event pointers stay stable.
    std::vector<std::unique_ptr<Event[]>> _blocks;
    std::size_t _blockUsed = 0;
    Event *_freeList = nullptr;

    EngineStats _stats;
};

} // namespace dagger::sim

#endif // DAGGER_SIM_EVENT_QUEUE_HH
