/**
 * @file
 * Simulated CPU cores and hardware threads.
 *
 * Software actors (RPC clients, server dispatch threads, workers,
 * microservice logic) charge CPU time to a HwThread.  Executions on
 * one hardware thread serialize; two active hardware threads on the
 * same physical core slow each other down by an SMT penalty —
 * this is what makes "8 threads on 4 cores" behave like the paper's
 * Xeon E5-2600v4 (2 threads/core, Table 2).
 */

#ifndef DAGGER_RPC_CPU_HH
#define DAGGER_RPC_CPU_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace dagger::rpc {

using sim::EventFn;
using sim::EventQueue;
using sim::Tick;

class CpuCore;

/** One SMT hardware thread. */
class HwThread
{
  public:
    /**
     * Charge @p cost of CPU time and then run @p fn.  Work requested
     * while the thread is busy queues behind it (FIFO by scheduling).
     */
    void execute(Tick cost, EventFn fn);

    /** First tick at which new work could start. */
    Tick busyUntil() const { return _busyUntil; }

    /** True if the thread has no queued work at the current tick. */
    bool idle() const;

    /** Total CPU time charged (after SMT scaling). */
    Tick busyTicks() const { return _busyTicks; }

    CpuCore &core() { return *_core; }
    unsigned index() const { return _index; }

  private:
    friend class CpuCore;

    CpuCore *_core = nullptr;
    unsigned _index = 0;
    Tick _busyUntil = 0;
    Tick _busyTicks = 0;
};

/** A physical core with two SMT hardware threads. */
class CpuCore
{
  public:
    /**
     * @param eq          event queue
     * @param id          core number (reporting only)
     * @param smt_penalty execution-time multiplier applied to work
     *                    that overlaps with the sibling thread
     *                    (1.6 ~= the usual ~1.25x total SMT yield)
     */
    CpuCore(EventQueue &eq, unsigned id, double smt_penalty = 1.6);

    HwThread &thread(unsigned i);
    unsigned id() const { return _id; }
    EventQueue &eventQueue() { return _eq; }

    /** Utilization of the core over a window (both threads, capped). */
    double utilization(Tick window) const;

  private:
    friend class HwThread;

    EventQueue &_eq;
    unsigned _id;
    double _smtPenalty;
    std::array<HwThread, 2> _threads;
};

/** A convenience bag of cores, e.g. "the 12-core Xeon". */
class CpuSet
{
  public:
    CpuSet(EventQueue &eq, unsigned cores, double smt_penalty = 1.6);

    CpuCore &core(unsigned i);
    unsigned numCores() const { return static_cast<unsigned>(_cores.size()); }

    /**
     * The paper's thread-placement convention: logical thread t runs
     * on core t/2, hw thread t%2 — so "4 threads" means 2 physical
     * cores fully SMT-loaded, matching §5.5.
     */
    HwThread &logicalThread(unsigned t);

  private:
    std::vector<std::unique_ptr<CpuCore>> _cores;
};

} // namespace dagger::rpc

#endif // DAGGER_RPC_CPU_HH
