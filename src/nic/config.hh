/**
 * @file
 * Hard and soft configuration of the Dagger NIC (§4.1).
 *
 * Hard configuration corresponds to SystemVerilog parameters baked
 * into a synthesized bitstream: number of flows, cache sizes, ring
 * sizes.  Changing it means building a new NIC object (the analogue of
 * reprogramming the FPGA).  The CPU-NIC interface flavour is fixed per
 * system, by the fabric all its NICs share.
 *
 * Soft configuration corresponds to the soft register file written
 * over MMIO at runtime ("Dagger uses soft configuration to control
 * the batch size of CCI-P data transfers, provision the transmit and
 * receive rings, ..., choose a load balancing scheme").  The scheme
 * itself is a field of each connection's tuple (§4.2, ConnTuple), set
 * when the connection is opened, not a NIC-wide register.
 */

#ifndef DAGGER_NIC_CONFIG_HH
#define DAGGER_NIC_CONFIG_HH

#include <cstdint>

#include "ic/cost_model.hh"
#include "sim/time.hh"

namespace dagger::nic {

/** Load-balancing schemes supported by the RPC unit (§4.4.2, §5.7). */
enum class LbScheme : std::uint8_t {
    RoundRobin,  ///< dynamic uniform steering
    Static,      ///< per-connection static assignment (conn tuple field)
    ObjectLevel, ///< application-specific key hash (MICA, §5.7)
};

const char *lbSchemeName(LbScheme scheme);

/** Hard configuration: fixed when the NIC is "synthesized". */
struct NicConfig
{
    /** Parallel NIC flows; 1-to-1 with software RX/TX ring pairs. */
    unsigned numFlows = 4;

    /** Connection-cache entries (power of two; up to ~153K, §4.2). */
    std::size_t connCacheEntries = 1024;

    /** Per-flow TX ring capacity in 64 B entries (§4.4 sizing rule). */
    std::size_t txRingEntries = 256;

    /** Per-flow RX ring capacity in 64 B entries. */
    std::size_t rxRingEntries = 256;

    /**
     * Unread: the interface is the system's (DaggerSystem's constructor
     * builds the fabric's profile from it).  Kept only because
     * perfbench/src/echo.cc still sets it; delete it with the next
     * change to perfbench.
     */
    ic::IfaceKind iface = ic::IfaceKind::Upi;

    /**
     * Enable DRAM backing of the connection cache (paper future work,
     * implemented here as an extension; see bench/abl_conn_cache).
     */
    bool connCacheDramBacking = false;

    /** Coherent fetch cost of a connection-state fill on a miss. */
    sim::Tick connMissPenalty = sim::nsToTicks(400);
};

/** Soft configuration: mutable at runtime through soft registers. */
struct SoftConfig
{
    /** CCI-P batching factor B (frames per transfer), Fig. 10/11. */
    unsigned batchSize = 4;

    /**
     * Auto-batching: fetch whatever is pending when the FSM is idle
     * instead of waiting for a full batch (the green dashed line in
     * Fig. 11 left).
     */
    bool autoBatch = false;

    /** Max time a partial batch may wait before being forced out.
     *  Calibrated: Fig. 11 (left) shows B=4 costs ~1 us of extra
     *  median latency at low load relative to B=1. */
    sim::Tick batchTimeout = sim::usToTicks(0.5);

    /**
     * Load threshold (fetches/us) above which the FPGA switches from
     * local-cache polling to direct LLC polling (§4.4.1).
     */
    double llcPollThresholdMrps = 4.0;
};

} // namespace dagger::nic

#endif // DAGGER_NIC_CONFIG_HH
