/**
 * @file
 * A serialized, port-fair interconnect channel.
 *
 * Models one direction of the CCI-P endpoint in the FPGA blue
 * bitstream: transactions from multiple NIC instances (ports) are
 * granted in round-robin order (the paper's PCIe/UPI arbiter,
 * Fig. 14) and occupy the channel for txnOverhead + lines *
 * lineService.
 */

#ifndef DAGGER_IC_CHANNEL_HH
#define DAGGER_IC_CHANNEL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/ring_queue.hh"
#include "sim/time.hh"

namespace dagger::ic {

using sim::EventFn;
using sim::EventQueue;
using sim::Tick;

/**
 * One direction of the interconnect endpoint with round-robin port
 * arbitration.
 */
class Channel
{
  public:
    /**
     * Called when a transaction's channel service completes, with the
     * requesting port and the transaction's tag (propagation latency
     * is added by the callee).
     */
    using ServicedFn = std::function<void(unsigned port, std::uint32_t tag)>;

    /**
     * @param eq           simulation event queue
     * @param line_service endpoint occupancy per cache line
     * @param txn_overhead fixed occupancy per transaction
     * @param ports        number of arbitrated ports (NIC instances)
     * @param serviced     completion callback for every transaction
     */
    Channel(EventQueue &eq, Tick line_service, Tick txn_overhead,
            unsigned ports, ServicedFn serviced);

    /**
     * Request service for a transaction of @p lines cache lines from
     * @p port.  The serviced callback receives @p tag when the
     * transaction's channel service completes.
     */
    void request(unsigned port, unsigned lines, std::uint32_t tag,
                 bool streamed = false);

    /** Add one more arbitrated port; returns its index. */
    unsigned addPort();

    /** Total lines serviced. */
    std::uint64_t linesServiced() const { return _linesServiced; }

    /** Total transactions serviced. */
    std::uint64_t txnsServiced() const { return _txnsServiced; }

    /** Per-port grant counts (for arbiter fairness checks). */
    const std::vector<std::uint64_t> &grants() const { return _grants; }

    /** Ticks the channel spent busy. */
    Tick busyTicks() const { return _busyTicks; }

    /** Utilization over a window. */
    double
    utilization(Tick window) const
    {
        return window == 0
            ? 0.0
            : static_cast<double>(_busyTicks) / static_cast<double>(window);
    }

  private:
    struct Txn
    {
        std::uint32_t tag;
        unsigned lines;
        bool streamed; ///< no per-transaction overhead (pipelined reads)
    };

    void grantNext();
    void serviceDone();

    EventQueue &_eq;
    Tick _lineService;
    Tick _txnOverhead;
    ServicedFn _serviced;
    std::vector<sim::RingQueue<Txn>> _queues;
    std::vector<std::uint64_t> _grants;
    unsigned _rrNext = 0;
    bool _busy = false;
    /** Port and tag of the transaction in service (at most one). */
    unsigned _inServicePort = 0;
    std::uint32_t _inServiceTag = 0;
    std::uint64_t _linesServiced = 0;
    std::uint64_t _txnsServiced = 0;
    Tick _busyTicks = 0;
};

} // namespace dagger::ic

#endif // DAGGER_IC_CHANNEL_HH
