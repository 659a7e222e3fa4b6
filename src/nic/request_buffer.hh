/**
 * @file
 * The TX-path request buffer of Fig. 9(B).
 *
 * "Dagger implements a request buffer ... which stores all incoming
 * RPCs in a lookup table indexed by the slot_id. The Free Slot FIFO
 * is designed to keep track of free entries in the request buffer.
 * The Flow FIFOs in this case only contain references (slot_ids) to
 * the actual RPC data in the table."  The table holds B * N_flows
 * entries (one frame each).  A slot has no identity beyond being an
 * entry, so the model counts them: each flow keeps one frame FIFO
 * whose first `resident` frames hold slots, and the frames behind them
 * are ingress stalled for a free slot ("drop or stall": the model
 * stalls up to a per-flow limit and drops beyond it).
 */

#ifndef DAGGER_NIC_REQUEST_BUFFER_HH
#define DAGGER_NIC_REQUEST_BUFFER_HH

#include <cstdint>
#include <vector>

#include "proto/wire.hh"
#include "sim/metrics.hh"

namespace dagger::nic {

/** Per-flow frame FIFOs over a shared B * N_flows-slot request table. */
class RequestBuffer
{
  public:
    /**
     * @param slots        request-table entries (B * N_flows in the
     *                     paper's sizing; larger is allowed)
     * @param flows        number of flow FIFOs
     * @param stall_frames per-flow cap on frames stalled for a slot
     */
    RequestBuffer(std::size_t slots, unsigned flows,
                  std::size_t stall_frames);

    /**
     * Queue one message's @p frames at the back of @p flow's FIFO and
     * give the flow's stalled frames whatever slots are free.
     * @retval false the flow's stalled frames plus the message would
     *         exceed the stall limit: the message is rejected and
     *         @p frames is left untouched.
     */
    bool push(unsigned flow, std::vector<proto::Frame> &&frames);

    /** Frames of @p flow holding table slots (the schedulable depth). */
    std::size_t flowDepth(unsigned flow) const;

    /** Frames of @p flow stalled waiting for a slot. */
    std::size_t stalled(unsigned flow) const;

    /**
     * Pop up to @p n slot-holding frames from @p flow in FIFO order,
     * as a recyclable burst (proto::takeBurst).  The freed slots go to
     * the same flow's stalled frames first, so a large message streams
     * through the table in batch-sized waves.
     */
    std::vector<proto::Frame> pop(unsigned flow, std::size_t n);

    std::size_t freeSlots() const { return _free; }

    /** Frames that have taken a table slot. */
    std::uint64_t pushes() const { return _pushes; }
    /** Messages rejected at the stall limit. */
    std::uint64_t rejections() const { return _rejections; }

    /** Register buffer statistics. */
    void
    registerMetrics(sim::MetricScope scope) const
    {
        scope.intGauge("pushes", [this] { return _pushes; });
        scope.intGauge("rejections", [this] { return _rejections; });
        scope.intGauge("free_slots",
                       [this] { return static_cast<std::uint64_t>(_free); });
    }

  private:
    struct Flow
    {
        proto::FrameFifo frames;
        /// frames at the front of `frames` that hold table slots
        std::size_t resident = 0;
    };

    /** Hand free slots to @p f's stalled frames, in FIFO order. */
    void admit(Flow &f);

    std::size_t _capacity;
    std::size_t _free;
    std::size_t _stallFrames;
    std::vector<Flow> _flows;
    std::uint64_t _pushes = 0;
    std::uint64_t _rejections = 0;
};

} // namespace dagger::nic

#endif // DAGGER_NIC_REQUEST_BUFFER_HH
