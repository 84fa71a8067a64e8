/**
 * @file
 * Full configuration of the simulated machine (paper Table 2) and of the
 * SSP mechanism, plus the physical-address-space layout.
 *
 * Default latencies assume a 3.7 GHz core: 50 ns = 185 cycles,
 * 200 ns = 740 cycles.
 */

#ifndef SSP_CORE_CONFIG_HH
#define SSP_CORE_CONFIG_HH

#include <cstdint>

#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "core/conflict_manager.hh"
#include "mem/device_presets.hh"
#include "mem/mem_system.hh"
#include "mem/timing_model.hh"
#include "nvram/ssp_cache.hh"

namespace ssp
{

// kCoreGHz / nsToCycles live in common/types.hh so the mem layer's
// device presets can use them without depending on core/.

/** Everything configurable about the simulated system. */
struct SspConfig
{
    // ---- machine ------------------------------------------------------
    unsigned numCores = 1;
    unsigned tlbEntries = 64;      ///< Table 2: 64 DTLB entries
    unsigned writeSetEntries = 64; ///< section 4.2/4.3 write-set buffer
    Cycles pageWalkCycles = 60;    ///< mostly-cached radix walk
    Cycles broadcastLatency = 16;  ///< flip-current-bit bus traversal
    Cycles opCost = 2;             ///< non-memory work per simulated op

    HierarchyParams caches{};

    /**
     * Concurrent-transaction conflict handling (detection mode, abort
     * penalty, retry backoff).  Only effective with numCores > 1; the
     * single-core model has no overlapping windows by construction.
     */
    ConflictParams conflicts{};

    /**
     * Coherence interconnect model: the default flat broadcast bus
     * (every event costs broadcastLatency regardless of sharer count)
     * or the 2D-mesh home-node directory (hop-scaled multicast to the
     * actual sharers, capacity-limited snoop filter).  See
     * cache/coherence.hh and interconnect/directory.hh.
     */
    CoherenceParams coherence{};

    MemTimingParams dram = dramDevicePreset();
    MemTimingParams nvram = nvramDevicePreset(NvramDevice::PaperPcm);

    /** Parallel channels per technology; 1 is the paper's channel pair. */
    unsigned dramChannels = 1;
    unsigned nvramChannels = 1;
    /** Unit of the round-robin address interleave across channels. */
    InterleaveGranularity interleaveGranularity =
        InterleaveGranularity::Line;

    /**
     * Figure 8 sweep: when > 0, NVRAM read and write latency are both
     * set to multiplier x DRAM latency (the paper's x-axis is "NVRAM
     * latency in multiples of DRAM latency").
     */
    double nvramLatencyMultiplier = 0;

    // ---- persistent-heap layout (physical pages) -----------------------
    std::uint64_t heapPages = 1 << 16;      ///< 256 MiB persistent heap
    std::uint64_t shadowPoolPages = 2048;   ///< reserved for P1 pages
    std::uint64_t journalPages = 512;       ///< metadata journal area
    std::uint64_t logPages = 8192;          ///< undo/redo log area
    std::uint64_t dramPages = 4096;         ///< volatile region

    // ---- SSP specifics --------------------------------------------------
    /** SSP cache slots; 0 means "cores x TLB entries + overprovision". */
    unsigned sspCacheSlots = 0;
    /** Overprovisioning factor O (section 4.1.2). */
    unsigned sspCacheOverprovision = 64;
    std::uint64_t checkpointThresholdBytes = 64 * 1024;
    SspCacheLatencyParams sspCacheLatency{};

    /**
     * Sub-page tracking granularity in cache lines (section 4.3): 1 =
     * 64-byte lines (64-bit bitmaps, the paper's base design); 4 =
     * 256-byte sub-pages matching Optane's preferred persistence
     * granularity, shrinking the bitmaps to 16 bits at the cost of
     * 4-line copy-on-write and flush units.  Must divide 64.
     */
    unsigned subPageLines = 1;

    /** When a page becomes inactive: consolidate immediately (the
     *  paper's implementation) or defer until memory pressure (the
     *  lazy policy the paper leaves as future work). */
    enum class ConsolidationPolicy { Eager, Lazy };
    ConsolidationPolicy consolidationPolicy = ConsolidationPolicy::Eager;
    /** Lazy policy: drain the pending queue when the shadow pool drops
     *  below this many free pages. */
    std::uint64_t lazyLowWatermark = 64;

    /** Exchange a slot's shadow page with a fresh pool page every N
     *  consolidations (wear leveling, section 4.1.2); 0 disables. */
    std::uint64_t wearRotatePeriod = 0;

    /** Field-by-field: two equal configs build identical machines. */
    bool operator==(const SspConfig &) const = default;

    // ---- derived layout -------------------------------------------------
    std::uint64_t
    nvramPages() const
    {
        return heapPages + shadowPoolPages + journalPages + logPages;
    }
    Ppn shadowPoolBase() const { return heapPages; }
    Addr
    journalBase() const
    {
        return pageBase(heapPages + shadowPoolPages);
    }
    std::uint64_t journalBytes() const { return journalPages * kPageSize; }
    Addr
    logBase() const
    {
        return pageBase(heapPages + shadowPoolPages + journalPages);
    }
    std::uint64_t logBytes() const { return logPages * kPageSize; }

    unsigned
    effectiveSspSlots() const
    {
        if (sspCacheSlots != 0)
            return sspCacheSlots;
        return numCores * tlbEntries + sspCacheOverprovision;
    }

    /** NVRAM timing after applying the Figure 8 multiplier. */
    MemTimingParams
    effectiveNvram() const
    {
        MemTimingParams p = nvram;
        if (nvramLatencyMultiplier > 0) {
            Cycles lat = static_cast<Cycles>(
                static_cast<double>(dram.readLatency) *
                nvramLatencyMultiplier);
            p.readLatency = lat;
            p.writeLatency = lat;
        }
        return p;
    }

    /** Replace the NVRAM timing with a named device preset. */
    void
    applyNvramDevice(NvramDevice device)
    {
        nvram = nvramDevicePreset(device);
    }

    /** The full memory-system description the Machine builds from. */
    MemSystemParams
    memSystem() const
    {
        MemSystemParams p;
        p.dram = dram;
        p.nvram = effectiveNvram();
        p.dramChannels = dramChannels;
        p.nvramChannels = nvramChannels;
        p.interleave = interleaveGranularity;
        return p;
    }
};

} // namespace ssp

#endif // SSP_CORE_CONFIG_HH
