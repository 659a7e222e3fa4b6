/**
 * @file
 * Calibrated timing constants for the CPU-NIC interconnect models.
 *
 * Every constant is annotated with the paper sentence it derives from
 * (Dagger, ASPLOS'21).  Constants with no direct sentence are
 * calibrated so the bench harnesses reproduce the Fig. 10 / Fig. 11 /
 * Table 3 numbers; see EXPERIMENTS.md for the calibration table.
 */

#ifndef DAGGER_IC_COST_MODEL_HH
#define DAGGER_IC_COST_MODEL_HH

#include "sim/logging.hh"
#include "sim/time.hh"

namespace dagger::ic {

using sim::nsToTicks;
using sim::Tick;

/**
 * CPU-NIC interface flavours evaluated in Fig. 10.  The RX path (host
 * TX ring -> NIC) uses the selected mechanism; the NIC -> host path
 * always uses direct writes into the RX rings (DMA write / coherent
 * write), as in the paper.
 */
enum class IfaceKind {
    MmioWrite,     ///< WQE-by-MMIO: full request written via MMIO stores
    Doorbell,      ///< MMIO doorbell + PCIe DMA per request
    DoorbellBatch, ///< one doorbell initiates a DMA batch of B requests
    Upi,           ///< coherent memory interconnect (Dagger's design)
    Cxl,           ///< CXL-style direct device writes (§4.3 outlook):
                   ///< the CPU writes RPCs straight into NIC memory —
                   ///< no polling, a single bus transaction per request
};

/** Printable name for bench output. */
const char *ifaceName(IfaceKind kind);

/**
 * UPI / CCI-P coherent-path constants.
 */
struct UpiCost
{
    /**
     * Host software buffer -> NIC delivery.  "the CCI-P-based memory
     * interconnect, based on Intel UPI, delivers data from the
     * software buffers to the NIC within 400 ns" (§4.4).
     */
    Tick fetchLatency = nsToTicks(400);

    /**
     * "another 400 ns required for sending back the bookkeeping
     * information" (§4.4).
     */
    Tick bookkeepLatency = nsToTicks(400);

    /**
     * NIC -> host RX-ring delivery.  A coherent write needs no request/
     * response round trip; calibrated so the B=1 RTT lands at the
     * paper's 1.8 us (Fig. 11 left).
     */
    Tick postLatency = nsToTicks(120);

    /**
     * "The CCI-P bus can support up to 128 outstanding requests"
     * (§4.4).
     */
    unsigned maxOutstanding = 128;

    /**
     * Per-direction service time of the blue-bitstream UPI endpoint
     * per cache line.  Calibrated: end-to-end RPC throughput flattens
     * at ~42 Mrps (84 Mrps of messages, each crossing the endpoint in
     * both directions) and raw idle reads flatten at ~80 Mrps
     * (Fig. 11 right; §5.5 attributes the ceiling to "the
     * implementation of the UPI end-point on the FPGA in the blue
     * region").
     */
    Tick lineService = nsToTicks(11.9);

    /** Fixed per-transaction overhead at the endpoint (amortized by B). */
    Tick txnOverhead = nsToTicks(8);

    /**
     * CPU cost to serialize + write one 64 B frame into the shared TX
     * buffer ("the only operation the processor needs to do is write
     * the RPC requests/responses to the buffer it shares with the
     * NIC", §4.3).
     */
    Tick cpuWriteCost = nsToTicks(42);

    /**
     * CPU cost to consume one bookkeeping return (free-slot release);
     * paid once per fetched batch, so amortized by B.  Calibrated to
     * Fig. 10: UPI B=1 -> 8.1 Mrps, B=4 -> 12.4 Mrps per core.
     */
    Tick cpuBookkeepCost = nsToTicks(64);

    /**
     * Extra fetch latency when the FPGA polls the processor LLC
     * directly instead of its local coherent cache (§4.4.1: Dagger
     * "dynamically switches to direct polling of the processor's LLC
     * when the load becomes high").  Local-cache polling is cheaper
     * per probe but steals line ownership from the CPU, which we model
     * as extra CPU-side cost at high load instead.
     */
    Tick llcPollExtra = nsToTicks(50);

    /** CPU-side ownership-loss penalty per request under local-cache
     *  polling mode (cache line bounces back to the FPGA). */
    Tick ownershipBounceCost = nsToTicks(25);

    /**
     * CXL outlook (§4.3): a non-cacheable direct write into device
     * memory.  One bus transaction, no polling round trip — the
     * delivery latency drops well under the UPI invalidation path.
     * The write itself is slightly more expensive than a cacheable
     * store (uncached WC path).
     */
    Tick cxlDeliverLatency = nsToTicks(180);
    Tick cxlCpuWriteCost = nsToTicks(55);
};

/**
 * PCIe-path constants (doorbell / batched doorbell / WQE-by-MMIO).
 */
struct PcieCost
{
    /**
     * PCIe DMA read of a host cache line as measured by the paper's
     * microbenchmark: "The PCIe DMA gives us 450 [ns] of median
     * one-way latency while the UPI read achieves 400 [ns]" (§5.3 —
     * printed as "us" in the text, an evident typo).
     */
    Tick dmaReadLatency = nsToTicks(450);

    /** NIC -> host DMA write (posted; no completion round trip). */
    Tick postLatency = nsToTicks(300);

    /**
     * Latency for an MMIO-written request to be visible NIC-side.
     * One PCIe transaction carries the whole 64 B request, so this is
     * the *lowest-latency* PCIe scheme (Fig. 10) though still well
     * above the coherent path.
     */
    Tick mmioDeliverLatency = nsToTicks(700);

    /** Doorbell MMIO arrival at the NIC (small non-cacheable write). */
    Tick doorbellLatency = nsToTicks(400);

    /** Per-direction PCIe link serialization per cache line. */
    Tick lineService = nsToTicks(8.0);

    /** Per-transaction overhead (TLP + DMA engine setup). */
    Tick txnOverhead = nsToTicks(60);

    /** PCIe tag limit. */
    unsigned maxOutstanding = 128;

    /** CPU cost to write one request into the TX ring. */
    Tick cpuRingWriteCost = nsToTicks(45);

    /**
     * CPU cost of issuing one MMIO transaction ("MMIO transactions
     * are slow ... every MMIO request should be explicitly issued by
     * the processor", §4.3).  Calibrated: doorbell-per-request caps a
     * core at ~4.3 Mrps.
     */
    Tick cpuMmioCost = nsToTicks(165);

    /**
     * CPU cost to push a full 64 B request through MMIO stores (two
     * AVX-256 stores, write-combining disabled; §4.4.1).  Calibrated:
     * WQE-by-MMIO caps a core at ~4.2 Mrps.
     */
    Tick cpuMmioPayloadCost = nsToTicks(185);

    /** CPU cost per DMA descriptor prepared for a batched doorbell. */
    Tick cpuDescCost = nsToTicks(10);
};

/**
 * One interface kind resolved to the constants the model charges: the
 * fabric's channel and latency terms and the sender's CPU cost.  The
 * five kinds differ only in these values, so every consumer reads the
 * profile and none branches on the kind.
 */
struct IfaceProfile
{
    Tick lineService = 0;        ///< channel service per cache line
    Tick txnOverhead = 0;        ///< per channel transaction (amortized by B)
    unsigned maxOutstanding = 0; ///< per-port transaction window

    /// host TX buffer -> RPC unit, after channel service and excluding
    /// queueing and batch wait
    Tick fetchLatency = 0;
    Tick postLatency = 0;     ///< NIC -> host RX ring, after service
    Tick bookkeepLatency = 0; ///< free-slot release (no channel occupancy)

    Tick cpuPerRequest = 0; ///< send CPU every request pays
    Tick cpuPerBatch = 0;   ///< send CPU paid once per batch

    Tick llcPollExtra = 0;        ///< fetch latency added by LLC polling
    Tick ownershipBounceCost = 0; ///< per-request CPU, local-cache polling

    /** Send CPU per request at batching factor @p batch (>= 1). */
    Tick
    sendCpu(unsigned batch) const
    {
        dagger_assert(batch >= 1, "batch factor must be >= 1");
        return cpuPerRequest + cpuPerBatch / batch;
    }
};

/**
 * The profile of interface @p kind, built from the default UpiCost and
 * PcieCost.  The one place that maps a kind to its constants.
 */
IfaceProfile profileFor(IfaceKind kind);

} // namespace dagger::ic

#endif // DAGGER_IC_COST_MODEL_HH
