/**
 * @file
 * Host Coherent Cache (HCC) model.
 *
 * "HCC is a small (128 KB) direct-mapped cache implemented in the blue
 * bitstream, which is fully coherent with the host's memory, via the
 * CCI-P stack. HCC is used to hold cache connection states and the
 * necessary structures for the transport layer on the NIC, while the
 * actual data resides in the host memory." (§4.1)
 *
 * A miss therefore costs one coherent fetch from host DRAM over CCI-P
 * rather than a full PCIe DMA round trip — the paper's point that
 * "NIC cache misses [are] cheaper compared to PCIe-based NICs".
 */

#ifndef DAGGER_MEM_HCC_HH
#define DAGGER_MEM_HCC_HH

#include <cstdint>

#include "mem/direct_mapped_cache.hh"
#include "sim/time.hh"

namespace dagger::mem {

/** HCC capacity in bytes (§4.1). */
constexpr std::size_t kHccBytes = 128 * 1024;

/** Cache line granularity. */
constexpr std::size_t kHccLineBytes = 64;

/** Number of direct-mapped lines. */
constexpr std::size_t kHccLines = kHccBytes / kHccLineBytes; // 2048

/**
 * HCC: a direct-mapped line-presence tracker with coherent-miss cost
 * accounting.  The "value" is opaque: what matters for the models is
 * whether a given state line is NIC-resident (hit) or must be pulled
 * from host DRAM over the coherent interconnect (miss).
 */
class Hcc
{
  public:
    /**
     * @param miss_latency cost of a coherent fill from host memory
     */
    explicit Hcc(sim::Tick miss_latency = sim::nsToTicks(400))
        : _missLatency(miss_latency), _lines(kHccLines)
    {}

    /**
     * Access the state line for @p key.
     * @return the access latency: 0 on a hit, missLatency on a fill.
     */
    sim::Tick
    access(std::uint64_t key)
    {
        if (_lines.lookup(key))
            return 0;
        _lines.insert(key, true);
        return _missLatency;
    }

    /** Invalidate one line (host wrote the backing memory). */
    void invalidate(std::uint64_t key) { _lines.erase(key); }

    std::uint64_t hits() const { return _lines.hits(); }
    std::uint64_t misses() const { return _lines.misses(); }
    double hitRate() const { return _lines.hitRate(); }
    sim::Tick missLatency() const { return _missLatency; }

    /** Register HCC statistics. */
    void
    registerMetrics(sim::MetricScope scope) const
    {
        _lines.registerMetrics(scope);
    }

  private:
    sim::Tick _missLatency;
    DirectMappedCache<bool> _lines;
};

} // namespace dagger::mem

#endif // DAGGER_MEM_HCC_HH
