#include "sim/sharded_engine.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/check.hh"
#include "sim/ownership.hh"

namespace dagger::sim {

namespace {

/** Worker count: DAGGER_SHARD_THREADS wins; otherwise one worker per
 *  parallel shard, capped by the hardware, and none on a single-CPU
 *  host (the coordinator multiplexes — identical results either way). */
unsigned
workerCount(unsigned shards)
{
    const unsigned parallel = shards - 1;
    unsigned want = 0;
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw >= 2)
        want = std::min(parallel, hw);
    if (const char *env = std::getenv("DAGGER_SHARD_THREADS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env)
            want = static_cast<unsigned>(
                std::min<unsigned long>(v, parallel));
    }
    return want;
}

} // namespace

ShardedEngine::ShardedEngine(EventQueue &q0, unsigned shards,
                             Tick lookahead)
    : _nshards(shards), _lookahead(lookahead), _q0(q0)
{
    dagger_assert(shards >= 2,
                  "a sharded engine needs at least one parallel shard");
    dagger_assert(lookahead >= 1, "lookahead must be positive");

    _shard.reserve(shards);
    _shard.push_back(std::make_unique<Shard>(_q0, 0, shards));
    _ownedQueues.reserve(shards - 1);
    for (unsigned s = 1; s < shards; ++s) {
        _ownedQueues.push_back(std::make_unique<EventQueue>());
        _shard.push_back(
            std::make_unique<Shard>(*_ownedQueues.back(), s, shards));
    }

    _cross.resize(static_cast<std::size_t>(shards) * shards);
    for (auto &box : _cross)
        box = std::make_unique<SpscMailbox<CrossEvent>>();
    _apply.resize(shards);
    for (auto &box : _apply)
        box = std::make_unique<SpscMailbox<CrossEvent>>();
    _busy.resize(shards);

    _nworkers = workerCount(shards);
    if (_nworkers > 0) {
        _startGate = std::make_unique<RoundBarrier>(_nworkers + 1);
        _doneGate = std::make_unique<RoundBarrier>(_nworkers + 1);
        _workers.reserve(_nworkers);
        for (unsigned w = 0; w < _nworkers; ++w)
            _workers.emplace_back([this, w] { workerLoop(w); });
    }
}

ShardedEngine::~ShardedEngine()
{
    if (!_workers.empty()) {
        _stop = true;
        _startGate->arriveAndWait();
        for (auto &worker : _workers)
            worker.join();
    }
}

void
ShardedEngine::workerLoop(unsigned w)
{
    const unsigned stride = _nworkers;
    for (;;) {
        _startGate->arriveAndWait();
        if (_stop)
            return;
        // Fixed shard->worker assignment: the SPSC mailbox consumer
        // for a given shard is the same thread on every round.
        for (unsigned s = 1 + w; s < _nshards; s += stride)
            runShardWindow(s);
        _doneGate->arriveAndWait();
    }
}

void
ShardedEngine::flushShard(unsigned s)
{
    Shard &sh = *_shard[s];
    if (!sh.hasStaged())
        return;
    for (unsigned to = 0; to < _nshards; ++to) {
        if (to != s)
            sh.flushCrossInto(to, inbox(s, to));
    }
    if (s >= 1)
        sh.flushAppliesInto(*_apply[s]);
    sh.clearStagedFlag();
}

void
ShardedEngine::runShardWindow(unsigned s)
{
    Shard &sh = *_shard[s];
    // Publish "shard s is executing its parallel window on this
    // thread" for the ownership audit (no-op unless built with
    // DAGGER_OWNERSHIP_AUDIT).
    ScopedExecContext auditCtx(this, s, /*parallel=*/true, &sh.queue());
    const std::uint64_t t0 = _clock ? _clock() : 0;
    for (unsigned from = 0; from < _nshards; ++from) {
        if (from == s)
            continue;
        inbox(from, s).drain(
            [&sh](CrossEvent &&ev) { sh.takeCross(std::move(ev)); });
    }
    sh.beginWindow(_roundEnd);
    sh.admit(_roundStart, _roundEnd);
    sh.queue().runUntil(_roundEnd - 1);
    sh.endWindow();
    flushShard(s);
    if (_clock)
        _busy[s].ns += _clock() - t0;
}

void
ShardedEngine::serialPhase()
{
    Shard &sh0 = *_shard[0];
    ScopedExecContext auditCtx(this, 0, /*parallel=*/false, &_q0);
    const std::uint64_t t0 = _clock ? _clock() : 0;

    for (unsigned from = 1; from < _nshards; ++from) {
        inbox(from, 0).drain(
            [&sh0](CrossEvent &&ev) { sh0.takeCross(std::move(ev)); });
    }
    sh0.beginWindow(_roundEnd);
    sh0.admit(_roundStart, _roundEnd);

    _applyBatch.clear();
    for (unsigned from = 1; from < _nshards; ++from) {
        _apply[from]->drain([this](CrossEvent &&ev) {
            _applyBatch.push_back(std::move(ev));
        });
    }
    if (!_applyBatch.empty()) {
        std::sort(_applyBatch.begin(), _applyBatch.end(),
                  [](const CrossEvent &a, const CrossEvent &b) {
                      return stampBefore(a.stamp, b.stamp);
                  });
        for (auto &apply : _applyBatch) {
            // Replay the apply at its exact sequential position: run
            // every shard-0 event strictly ordered before the caller's
            // (tick, priority), then invoke with the clock sitting at
            // the caller's tick and stamps inheriting its priority.
            _q0.runWhileBefore(apply.stamp.birthTick,
                               apply.stamp.birthPrio);
            sh0.setPrioOverride(apply.stamp.birthPrio);
            EventFn fn = std::move(apply.fn);
            fn();
            sh0.clearPrioOverride();
            ++_appliesRun;
        }
        _applyBatch.clear();
    }

    _q0.runUntil(_roundEnd - 1);
    sh0.endWindow();
    flushShard(0);
    if (_clock)
        _busy[0].ns += _clock() - t0;
}

bool
ShardedEngine::canElideSerial(Tick end) const
{
    // Everything read here is post-barrier state: the parallel phase
    // finished, so per-shard counters are visible and stable.  All of
    // it is deterministic, so elision decisions are identical at any
    // worker count.
    std::uint64_t appliesSent = 0;
    std::uint64_t flushedTo0 = 0;
    for (unsigned s = 1; s < _nshards; ++s) {
        const ShardStats &st = _shard[s]->stats();
        appliesSent += st.appliesSent;
        flushedTo0 += st.flushedTo0;
    }
    if (appliesSent != _appliesRun)
        return false; // queued applies need the serial phase
    if (flushedTo0 != _shard[0]->stats().crossRecvd)
        return false; // undrained shard-0 inbox items
    if (_shard[0]->pendingMin() < end)
        return false;
    return _q0.nextEventLowerBound() >= end;
}

void
ShardedEngine::round(Tick start, Tick end)
{
    _roundStart = start;
    _roundEnd = end;
    const std::uint64_t t0 = _clock ? _clock() : 0;
    if (_workers.empty()) {
        for (unsigned s = 1; s < _nshards; ++s)
            runShardWindow(s);
    } else {
        _startGate->arriveAndWait();
        _doneGate->arriveAndWait();
    }
    const std::uint64_t t1 = _clock ? _clock() : 0;
    _parallelNs += t1 - t0;
    if (canElideSerial(end)) {
        ++_serialElided;
        // Shard 0's last flush has been drained by every receiver (the
        // parallel phase drains all inboxes), so its posted minimum is
        // covered by receiver pending heaps; reset it here since the
        // skipped window would have.
        _shard[0]->resetPostedMin();
    } else {
        serialPhase();
    }
    if (_clock)
        _serialNs += _clock() - t1;
    ++_rounds;
    const Tick width = end - start;
    _windowTicksSum += width;
    if (width > _windowTicksMax)
        _windowTicksMax = width;
}

Tick
ShardedEngine::soloRun(unsigned s, Tick t, Tick bound)
{
    Shard &sh = *_shard[s];
    ScopedExecContext auditCtx(this, s, /*parallel=*/s != 0,
                               &sh.queue());
    const std::uint64_t t0 = _clock ? _clock() : 0;
    ++_soloRuns;
    sh.noteWindowRun();
    sh.resetPostedMin();
    // In-flight hand-offs are zero (solo precondition), so the inboxes
    // are empty; drain anyway — it is two loads per box — and admit
    // the whole pending heap: with every other shard idle there is
    // nothing to merge against, so direct insertion in stamp order
    // now, with no spill horizon during the run, reproduces the
    // sequential schedule exactly.
    for (unsigned from = 0; from < _nshards; ++from) {
        if (from != s) {
            inbox(from, s).drain(
                [&sh](CrossEvent &&ev) { sh.takeCross(std::move(ev)); });
        }
    }
    sh.admit(t, UINT64_MAX);
    Tick c = t;
    while (c < bound && !sh.hasStaged()) {
        const Tick lb = sh.queue().nextEventLowerBound();
        if (lb == UINT64_MAX) {
            c = bound; // drained with nothing staged: nothing anywhere
            break;
        }
        // One lookahead-wide chunk starting at the next event: any
        // cross/apply staged inside it lands at or after the chunk
        // end, so exiting at a chunk boundary is a safe commit point
        // for the receivers' next window.
        const Tick base = std::max(c, lb);
        Tick c2 = base + _lookahead;
        if (c2 > bound || c2 < base)
            c2 = bound;
        _roundStart = c;
        _roundEnd = c2; // keeps the postCross lookahead assert exact
        sh.queue().runUntil(c2 - 1);
        ++_soloChunks;
        c = c2;
    }
    flushShard(s);
    const std::uint64_t dt = _clock ? _clock() - t0 : 0;
    _busy[s].ns += dt;
    if (s == 0)
        _serialNs += dt;
    else
        _parallelNs += dt;
    if (s != 0)
        soloApplyEpilogue(c);
    return c;
}

void
ShardedEngine::soloApplyEpilogue(Tick commit)
{
    // Applies staged during a solo stretch were born before the commit
    // point, so deferring them to the next round's serial phase would
    // replay shard-0 work below that round's window start — and its
    // cross-posts could land inside the window.  Run them now instead,
    // with the solo commit as the window end: every apply (and thus
    // every shard-0 event its cascade schedules) was born at or after
    // the last chunk's base, so outbound posts land at or after
    // base + lookahead = commit, exactly the round invariant.
    std::uint64_t appliesSent = 0;
    for (unsigned s = 1; s < _nshards; ++s)
        appliesSent += _shard[s]->stats().appliesSent;
    if (appliesSent == _appliesRun)
        return;
    Shard &sh0 = *_shard[0];
    ScopedExecContext auditCtx(this, 0, /*parallel=*/false, &_q0);
    const std::uint64_t t0 = _clock ? _clock() : 0;
    _roundEnd = commit;
    sh0.resetPostedMin();
    _applyBatch.clear();
    for (unsigned from = 1; from < _nshards; ++from) {
        _apply[from]->drain([this](CrossEvent &&ev) {
            _applyBatch.push_back(std::move(ev));
        });
    }
    std::sort(_applyBatch.begin(), _applyBatch.end(),
              [](const CrossEvent &a, const CrossEvent &b) {
                  return stampBefore(a.stamp, b.stamp);
              });
    for (auto &apply : _applyBatch) {
        _q0.runWhileBefore(apply.stamp.birthTick, apply.stamp.birthPrio);
        sh0.setPrioOverride(apply.stamp.birthPrio);
        EventFn fn = std::move(apply.fn);
        fn();
        sh0.clearPrioOverride();
        ++_appliesRun;
    }
    _applyBatch.clear();
    _q0.runUntil(commit - 1);
    flushShard(0);
    if (_clock) {
        const std::uint64_t dt = _clock() - t0;
        _busy[0].ns += dt;
        _serialNs += dt;
    }
}

void
ShardedEngine::runUntil(Tick target)
{
    dagger_assert(target >= _now, "ShardedEngine::runUntil into the past");
    dagger_assert(target < UINT64_MAX, "runUntil target overflows");
    Tick t = _now;
    const Tick bound = target + 1; // exclusive
    while (t < bound) {
        // One pass over the shards: global next-tick lower bound
        // (queues, unadmitted pending heaps, staged/in-flight
        // hand-offs via postedMin) plus how many shards hold work.
        Tick lb = UINT64_MAX;
        unsigned active = 0;
        unsigned activeShard = 0;
        std::uint64_t flushed = 0, recvd = 0, appliesSent = 0;
        for (unsigned s = 0; s < _nshards; ++s) {
            const Shard &sh = *_shard[s];
            const Tick slb =
                std::min({sh.queue().nextEventLowerBound(),
                          sh.pendingMin(), sh.postedMin()});
            if (slb != UINT64_MAX) {
                ++active;
                activeShard = s;
                if (slb < lb)
                    lb = slb;
            }
            const ShardStats &st = sh.stats();
            flushed += st.flushedCross;
            recvd += st.crossRecvd;
            appliesSent += st.appliesSent;
        }
        const bool inflight = flushed != recvd;
        const bool appliesPending = appliesSent != _appliesRun;
        if (lb == UINT64_MAX && !inflight && !appliesPending)
            break; // nothing anywhere; the catch-up loop advances clocks
        if (active == 1 && !inflight && !appliesPending) {
            t = soloRun(activeShard, t, bound);
            continue;
        }
        // Adaptive window: cover the gap to the earliest event plus a
        // full lookahead.  Anything executing this round sits at or
        // after lb, so its cross-posts land at or after lb + lookahead
        // = E — the window stays conservative at its extended width.
        Tick end = lb == UINT64_MAX ? bound : lb + _lookahead;
        if (end > bound || end < t)
            end = bound;
        if (lb != UINT64_MAX && lb > t)
            ++_windowsExtended;
        else
            ++_windowsStatic;
        round(t, end);
        t = end;
    }
    _now = target;
    // Catch up queues a solo stretch or an elided serial phase left
    // behind: by this point nothing anywhere is due at or before
    // target, so this advances clocks without running events.
    for (auto &sh : _shard) {
        if (sh->queue().now() < target)
            sh->queue().runUntil(target);
    }
}

void
ShardedEngine::postCross(unsigned from, unsigned to, TickDelta delay,
                         EventFn &&fn, Priority prio)
{
    dagger_assert(from < _nshards && to < _nshards, "bad shard id");
    dagger_assert(from != to,
                  "same-shard post: schedule on the queue instead");
    Shard &src = *_shard[from];
    const Tick when = src.queue().now() + delay;
    dagger_assert(when >= _roundEnd,
                  "cross-shard post lands inside the current window: "
                  "delay is below the engine lookahead (from=", from,
                  " to=", to, " when=", when, " window end=", _roundEnd,
                  " lookahead=", _lookahead, ")");
    src.stageCross(to,
                   CrossEvent{when, prio, src.nextStamp(), std::move(fn)});
}

void
ShardedEngine::postApply(unsigned from, EventFn &&fn)
{
    dagger_assert(from >= 1 && from < _nshards,
                  "applies come from parallel shards into shard 0");
    Shard &src = *_shard[from];
    src.stageApply(CrossEvent{src.queue().now(), Priority::Hardware,
                              src.nextStamp(), std::move(fn)});
}

std::uint64_t
ShardedEngine::executed() const
{
    std::uint64_t total = 0;
    for (const auto &shard : _shard)
        total += shard->queue().executed();
    return total;
}

EventQueue::EngineStats
ShardedEngine::aggregateStats() const
{
    EventQueue::EngineStats agg;
    for (const auto &shard : _shard) {
        const auto &st = shard->queue().stats();
        agg.poolHits += st.poolHits;
        agg.poolMisses += st.poolMisses;
        agg.poolBlocks += st.poolBlocks;
        agg.wheelAdmits += st.wheelAdmits;
        agg.frameAdmits += st.frameAdmits;
        agg.heapAdmits += st.heapAdmits;
        agg.maxPending = std::max(agg.maxPending, st.maxPending);
        agg.heapClosures += st.heapClosures;
    }
    return agg;
}

std::uint64_t
ShardedEngine::batchFlushes() const
{
    std::uint64_t total = 0;
    for (const auto &shard : _shard)
        total += shard->stats().batchFlushes;
    return total;
}

std::uint64_t
ShardedEngine::barrierSpins() const
{
    return (_startGate ? _startGate->spins() : 0) +
           (_doneGate ? _doneGate->spins() : 0);
}

std::uint64_t
ShardedEngine::barrierParks() const
{
    return (_startGate ? _startGate->parks() : 0) +
           (_doneGate ? _doneGate->parks() : 0);
}

std::uint64_t
ShardedEngine::mailboxHighWater(unsigned s) const
{
    std::uint64_t high = 0;
    for (unsigned from = 0; from < _nshards; ++from) {
        if (from != s)
            high = std::max(high, inbox(from, s).highWater());
    }
    if (s == 0) {
        for (unsigned from = 1; from < _nshards; ++from)
            high = std::max(high, _apply[from]->highWater());
    }
    return high;
}

std::uint64_t
ShardedEngine::mailboxOverflowed(unsigned s) const
{
    std::uint64_t total = 0;
    for (unsigned from = 0; from < _nshards; ++from) {
        if (from != s)
            total += inbox(from, s).overflowed();
    }
    if (s == 0) {
        for (unsigned from = 1; from < _nshards; ++from)
            total += _apply[from]->overflowed();
    }
    return total;
}

} // namespace dagger::sim
