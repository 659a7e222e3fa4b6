#include "ic/cost_model.hh"

#include "sim/logging.hh"

namespace dagger::ic {

const char *
ifaceName(IfaceKind kind)
{
    switch (kind) {
      case IfaceKind::MmioWrite:
        return "MMIO";
      case IfaceKind::Doorbell:
        return "Doorbell";
      case IfaceKind::DoorbellBatch:
        return "DoorbellBatch";
      case IfaceKind::Upi:
        return "UPI";
      case IfaceKind::Cxl:
        return "CXL";
    }
    return "?";
}

IfaceProfile
profileFor(IfaceKind kind)
{
    const UpiCost upi;
    const PcieCost pcie;
    // The PCIe kinds share the link, its DMA-write posts and the posted
    // free-slot release; they differ in delivery and send CPU.
    const auto over_pcie = [&pcie](Tick fetch, Tick per_request,
                                   Tick per_batch) {
        return IfaceProfile{.lineService = pcie.lineService,
                            .txnOverhead = pcie.txnOverhead,
                            .maxOutstanding = pcie.maxOutstanding,
                            .fetchLatency = fetch,
                            .postLatency = pcie.postLatency,
                            .bookkeepLatency = pcie.postLatency,
                            .cpuPerRequest = per_request,
                            .cpuPerBatch = per_batch};
    };
    // Doorbell schemes deliver in two steps: the doorbell reaches the
    // NIC, then the NIC DMA-reads the ring.
    const Tick doorbell_fetch = pcie.doorbellLatency + pcie.dmaReadLatency;
    switch (kind) {
      case IfaceKind::MmioWrite:
        // Full payload pushed by the CPU; batching does not help MMIO.
        return over_pcie(pcie.mmioDeliverLatency, pcie.cpuMmioPayloadCost,
                         0);
      case IfaceKind::Doorbell:
        // Ring write plus one doorbell MMIO per request.
        return over_pcie(doorbell_fetch,
                         pcie.cpuRingWriteCost + pcie.cpuMmioCost, 0);
      case IfaceKind::DoorbellBatch:
        // One DMA descriptor per request; one doorbell MMIO per batch.
        return over_pcie(doorbell_fetch,
                         pcie.cpuRingWriteCost + pcie.cpuDescCost,
                         pcie.cpuMmioCost);
      case IfaceKind::Upi:
        // Pure memory write; bookkeeping consumed once per batch.  Only
        // the invalidation path polls, so only UPI pays poll-mode terms.
        return {.lineService = upi.lineService,
                .txnOverhead = upi.txnOverhead,
                .maxOutstanding = upi.maxOutstanding,
                .fetchLatency = upi.fetchLatency,
                .postLatency = upi.postLatency,
                .bookkeepLatency = upi.bookkeepLatency,
                .cpuPerRequest = upi.cpuWriteCost,
                .cpuPerBatch = upi.cpuBookkeepCost,
                .llcPollExtra = upi.llcPollExtra,
                .ownershipBounceCost = upi.ownershipBounceCost};
      case IfaceKind::Cxl:
        // Direct device write into a NIC-owned buffer: no polling, no
        // bookkeeping (release is immediate), just the uncached store.
        return {.lineService = upi.lineService,
                .txnOverhead = upi.txnOverhead,
                .maxOutstanding = upi.maxOutstanding,
                .fetchLatency = upi.cxlDeliverLatency,
                .postLatency = upi.postLatency,
                .cpuPerRequest = upi.cxlCpuWriteCost};
    }
    dagger_panic("unreachable iface kind");
}

} // namespace dagger::ic
