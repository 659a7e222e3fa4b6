/**
 * @file
 * The Packet Monitor block of the RPC unit (Fig. 6).
 *
 * The RPC unit's other auxiliary block, the Protocol unit, "is
 * currently idle - it simply forwards all packets to the network"
 * (§4.5), so it has no type of its own: DaggerNic forwards packets
 * straight to the wire unless DaggerNic::enableAck() turned on the
 * optional reliable transport (nic/ack_protocol.hh).
 */

#ifndef DAGGER_NIC_PIPELINE_HH
#define DAGGER_NIC_PIPELINE_HH

#include <cstdint>

#include "sim/metrics.hh"
#include "sim/stats.hh"

namespace dagger::nic {

/** The Packet Monitor block: networking statistics (§4.1). */
struct PacketMonitor
{
    sim::Counter rpcsOut;
    sim::Counter rpcsIn;
    sim::Counter framesFetched;
    sim::Counter framesPosted;
    sim::Counter bytesOut;
    sim::Counter bytesIn;
    sim::Counter dropsNoConnection;
    sim::Counter dropsNoSlot;
    sim::Counter malformed;
    sim::Counter timeoutFlushes;
    sim::Histogram fetchBatch;
    sim::Histogram postBatch;

    /** Total drops across causes observable at the NIC. */
    std::uint64_t
    drops() const
    {
        return dropsNoConnection.value() + dropsNoSlot.value();
    }

    /** Register all monitor statistics under @p scope. */
    void
    registerMetrics(sim::MetricScope scope) const
    {
        scope.counter("rpcs_out", rpcsOut);
        scope.counter("rpcs_in", rpcsIn);
        scope.counter("frames_fetched", framesFetched);
        scope.counter("frames_posted", framesPosted);
        scope.counter("bytes_out", bytesOut);
        scope.counter("bytes_in", bytesIn);
        scope.counter("drops_no_connection", dropsNoConnection);
        scope.counter("drops_no_slot", dropsNoSlot);
        scope.counter("malformed", malformed);
        scope.counter("timeout_flushes", timeoutFlushes);
        scope.histogram("fetch_batch", fetchBatch);
        scope.histogram("post_batch", postBatch);
    }
};

} // namespace dagger::nic

#endif // DAGGER_NIC_PIPELINE_HH
