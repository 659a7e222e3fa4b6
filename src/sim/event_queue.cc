#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/check.hh"
#include "sim/prefetch.hh"

namespace dagger::sim {

EventQueue::~EventQueue()
{
    // Slots are a union of {closure, free-list link}, so block teardown
    // cannot run closure destructors itself: explicitly destroy the
    // closure of every still-pending event (free slots hold no closure).
    for (auto &bucket : _buckets)
        for (HeapEntry &entry : bucket)
            entry.ev->fn.~EventFn();
    for (auto &frame : _frames)
        for (HeapEntry &entry : frame)
            entry.ev->fn.~EventFn();
    for (HeapEntry &entry : _far)
        entry.ev->fn.~EventFn();
}

EventQueue::Event *
EventQueue::allocEvent()
{
    Event *ev;
    if (_freeList != nullptr) {
        ev = _freeList;
        _freeList = ev->nextFree;
        ++_stats.poolHits;
    } else {
        if (_blocks.empty() || _blockUsed == kPoolBlockEvents) {
            _blocks.push_back(std::make_unique<Event[]>(kPoolBlockEvents));
            _blockUsed = 0;
            ++_stats.poolBlocks;
        }
        ++_stats.poolMisses;
        ev = &_blocks.back()[_blockUsed++];
    }
    return ev;
}

void
EventQueue::releaseEvent(Event *ev) noexcept
{
    // The closure was moved out (and is therefore empty) before release;
    // end its lifetime and activate the free-list link member.
    ev->fn.~EventFn();
    ev->nextFree = _freeList;
    _freeList = ev;
}

void
EventQueue::scheduleAt(Tick when, EventFn &&fn, Priority prio)
{
    dagger_assert(when >= _now,
                  "scheduleAt in the past: when=", when, " now=", _now);
    dagger_assert(fn, "scheduleAt with empty callback");
    // A current-frame admission lands in a near-random bucket of the
    // wheel; start that header's line fill while the pool allocation
    // below proceeds.
    const std::uint64_t frame = when >> kFrameShift;
    if (frame == _curFrame)
        DAGGER_PREFETCH_W(
            &_buckets[(when >> kBucketBits) & (kWheelBuckets - 1)]);
    // The insertion sequence is the deterministic tie-break key for
    // same-(tick, priority) events; exhausting the packed field would
    // scramble replay order between two otherwise-identical runs.
    DAGGER_INVARIANT(_seq < (std::uint64_t{1} << kSeqBits),
                     "event sequence counter exhausted; tie-break keys "
                     "would wrap and break deterministic ordering");
    DAGGER_DCHECK(static_cast<std::uint32_t>(prio) <= 0xFFFF,
                  "priority does not fit the packed tie-break key");
    Event *ev = allocEvent();
    // Switch the union's active member from free-list link to closure,
    // moving the callable straight into the pooled slot.  Placement
    // construction; no ownership created.
    ::new (&ev->fn) EventFn(std::move(fn)); // dagger-lint: allow(no-raw-new-in-sim)
    const HeapEntry entry{
        when,
        (static_cast<std::uint64_t>(prio) << kSeqBits) | _seq++,
        ev,
    };

    // Frame index alone decides the level.  refill() guarantees that
    // _curFrame never runs ahead of frame(_now), and when >= _now, so
    // the admitted frame is never below the current one.
    DAGGER_DCHECK(frame >= _curFrame,
                  "admission into a frame below the current one");
    if (frame == _curFrame) {
        admitWheel(entry);
        ++_stats.wheelAdmits;
    } else if (frame - _curFrame < kFrames) {
        // Parked unsorted until the frame cascades.  A future frame f
        // maps to slot f & (kFrames-1); live parked frames all lie in
        // (_curFrame, _curFrame + kFrames), so distinct frames map to
        // distinct slots.
        _frames[frame & (kFrames - 1)].push_back(entry);
        ++_frameCount;
        ++_stats.frameAdmits;
    } else {
        _far.push_back(entry);
        std::push_heap(_far.begin(), _far.end(), LaterEntry{});
        ++_stats.heapAdmits;
    }
    _stats.maxPending = std::max<std::uint64_t>(_stats.maxPending, pending());
}

void
EventQueue::admitWheel(const HeapEntry &entry)
{
    // Every wheel event belongs to _curFrame, so absolute buckets span
    // exactly [frame * kWheelBuckets, (frame + 1) * kWheelBuckets) and
    // distinct buckets map to distinct slots: the forward scan can
    // attribute a slot's contents to exactly one bucket.
    //
    // Buckets are kept *unsorted* on admission and sorted once, when
    // the scan first drains them (peekWheel): appending beats a
    // push_heap sift per event, and the one sort costs the same
    // O(log k) per event with a much smaller constant.  The only
    // exception is an admission into the bucket the scan has already
    // sorted (a sub-bucket delay, rare): that one inserts in place to
    // keep the sorted suffix valid.
    const std::uint64_t absBucket = entry.when >> kBucketBits;
    const std::size_t slot = absBucket & (kWheelBuckets - 1);
    auto &bucket = _buckets[slot];
    if (absBucket == _sortedAbs && !bucket.empty())
        bucket.insert(std::upper_bound(bucket.begin(), bucket.end(),
                                       entry, LaterEntry{}),
                      entry);
    else
        bucket.push_back(entry);
    _occupied[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    if (++_wheelCount == 1 || absBucket < _scanAbs)
        _scanAbs = absBucket;
}

bool
EventQueue::refill(Tick limit)
{
    for (;;) {
        if (_wheelCount != 0)
            return true;
        if (_frameCount == 0 && _far.empty())
            return false;

        // Earliest frame holding events: the parked frames (all within
        // kFrames of _curFrame) and the far heap's minimum compete.
        std::uint64_t target = UINT64_MAX;
        if (_frameCount != 0) {
            for (std::uint64_t f = _curFrame + 1; f < _curFrame + kFrames;
                 ++f) {
                if (!_frames[f & (kFrames - 1)].empty()) {
                    target = f;
                    break;
                }
            }
            DAGGER_INVARIANT(target != UINT64_MAX,
                             "frame count ", _frameCount,
                             " but no parked frame found");
        }
        if (!_far.empty())
            target = std::min(target, _far.front().when >> kFrameShift);

        // Never make a frame current before the caller's window reaches
        // it: a runUntil() that stops short must leave the frame parked
        // so later admissions between now and the frame start still see
        // frame > _curFrame.  This keeps _curFrame <= frame(_now) at
        // every point where user code can schedule.
        if ((target << kFrameShift) > limit)
            return false;

        _curFrame = target;
        auto &frame = _frames[target & (kFrames - 1)];
        _frameCount -= frame.size();
        for (const HeapEntry &entry : frame)
            admitWheel(entry);
        frame.clear();
        // Far-heap events of the now-current frame migrate down too.
        while (!_far.empty() &&
               (_far.front().when >> kFrameShift) == target) {
            admitWheel(_far.front());
            std::pop_heap(_far.begin(), _far.end(), LaterEntry{});
            _far.pop_back();
        }
    }
}

std::uint64_t
EventQueue::earliestWheelBucket() const
{
    // No nonempty bucket lies below the scan position or below now.
    const std::uint64_t abs = std::max(_scanAbs, _now >> kBucketBits);
    const std::size_t slot = abs & (kWheelBuckets - 1);
    // Dense workloads find their next event right here: one header
    // read, no bitmap search.
    if (!_buckets[slot].empty())
        return abs;
    // Every wheel event lies in _curFrame, whose buckets occupy the
    // slots in ascending order, so the search runs forward from `slot`
    // to the end of the bitmap and never wraps.
    std::size_t w = slot >> 6;
    std::uint64_t word = _occupied[w] & (~std::uint64_t{0} << (slot & 63));
    while (word == 0) {
        ++w;
        DAGGER_INVARIANT(w < kOccupancyWords,
                         "occupancy bitmap is empty past the scan position "
                         "with ", _wheelCount, " wheel events pending");
        word = _occupied[w];
    }
    return abs - slot + (w << 6) +
        static_cast<unsigned>(std::countr_zero(word));
}

std::vector<EventQueue::HeapEntry> *
EventQueue::peekWheel()
{
    if (_wheelCount == 0)
        return nullptr;
    const std::uint64_t abs = earliestWheelBucket();
    auto &bucket = _buckets[abs & (kWheelBuckets - 1)];
    if (abs != _sortedAbs) {
        // First touch by the scan: sort descending so pops are
        // pop_back and the earliest event sits at back().  A lone
        // event is already sorted.
        if (bucket.size() > 1)
            std::sort(bucket.begin(), bucket.end(), LaterEntry{});
        _sortedAbs = abs;
    }
    _scanAbs = abs;
    // This bucket's back is the global minimum; warm its pooled slot
    // while the limit check runs.
    DAGGER_PREFETCH_W(bucket.back().ev);
    return &bucket;
}

bool
EventQueue::step(Tick limit)
{
    if (_wheelCount == 0 && !refill(limit))
        return false;
    std::vector<HeapEntry> *bucket = peekWheel();
    // Every parked/far event is in a strictly later frame than every
    // wheel event, so the wheel minimum is the global minimum: no
    // cross-level merge on the pop path.
    const HeapEntry &top = bucket->back();
    if (top.when > limit)
        return false;
    const Tick when = top.when;
    Event *ev = top.ev;
    // The slot was written when the event was scheduled — typically
    // thousands of events ago, so this read misses cache.  Start the
    // line fill now so the bookkeeping below hides part of its latency.
    DAGGER_PREFETCH_W(ev);

    bucket->pop_back();
    --_wheelCount;
    if (bucket->empty()) {
        const std::size_t slot = (when >> kBucketBits) & (kWheelBuckets - 1);
        _occupied[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    }

    DAGGER_INVARIANT(when >= _now,
                     "simulated time moved backwards: event at ", when,
                     " popped with now=", _now);
    _now = when;
    ++_executed;
    // Release the slot before invoking so a callback that immediately
    // reschedules reuses it (the common self-clocking pattern hits the
    // free list every time).
    EventFn fn = std::move(ev->fn);
    releaseEvent(ev);
    fn();
    // Warm the likely candidate of the NEXT pop: the callback above
    // ran for long enough that starting this line fill now hides most
    // of the slot-read latency of the following step.  _scanAbs may sit
    // on a drained bucket (the scan will advance past it next step);
    // this is only a hint, so checking that one slot is enough.
    {
        const auto &next = _buckets[_scanAbs & (kWheelBuckets - 1)];
        if (!next.empty())
            DAGGER_PREFETCH_W(next.back().ev);
    }
    return true;
}

bool
EventQueue::runOne()
{
    return step(UINT64_MAX);
}

void
EventQueue::runUntil(Tick when)
{
    while (step(when)) {
    }
    if (_now < when)
        _now = when;
}

void
EventQueue::runAll(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (runOne()) {
        if (++n >= max_events)
            dagger_panic("runAll exceeded ", max_events,
                         " events; likely a self-rescheduling loop");
    }
}

} // namespace dagger::sim
