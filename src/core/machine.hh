/**
 * @file
 * The simulated machine substrate shared by SSP and the baseline
 * designs: physical memory, the cache hierarchy (with the coherence
 * model and the memory bus it drives), the page table, per-core TLBs
 * and per-core clocks.
 *
 * A Machine is a plain value: every part is held by value and none
 * points at another, so the compiler's copy of a machine is an
 * independent machine in the same simulated state.
 */

#ifndef SSP_CORE_MACHINE_HH
#define SSP_CORE_MACHINE_HH

#include <algorithm>
#include <vector>

#include "cache/coherence.hh"
#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "core/conflict_manager.hh"
#include "mem/memory_bus.hh"
#include "mem/phys_mem.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace ssp
{

/** One simulated machine. */
class Machine
{
  public:
    explicit Machine(const SspConfig &cfg)
        : cfg_(cfg), mem_(cfg.nvramPages(), cfg.dramPages),
          caches_(cfg.numCores, cfg.caches, MemoryBus(mem_, cfg.memSystem()),
                  makeCoherenceModel(cfg.numCores, cfg.broadcastLatency,
                                     cfg.coherence)),
          pt_(cfg.pageWalkCycles, cfg.heapPages),
          conflicts_(cfg.numCores, cfg.conflicts),
          tlbs_(cfg.numCores, Tlb(cfg.tlbEntries)), clocks_(cfg.numCores, 0)
    {
        // Identity-map the persistent heap up front.  Consolidation may
        // later retarget individual mappings; recovery relies on every
        // heap page having a page-table entry.
        for (std::uint64_t vpn = 0; vpn < cfg.heapPages; ++vpn)
            pt_.map(vpn, vpn);
    }

    const SspConfig &cfg() const { return cfg_; }
    PhysMem &mem() { return mem_; }
    MemoryBus &bus() { return caches_.bus(); }
    const MemoryBus &bus() const { return caches_.bus(); }
    CacheHierarchy &caches() { return caches_; }
    PageTable &pt() { return pt_; }
    CoherenceModel &coherence() { return caches_.coherence(); }
    const CoherenceModel &coherence() const { return caches_.coherence(); }
    ConflictManager &conflicts() { return conflicts_; }
    const ConflictManager &conflicts() const { return conflicts_; }
    Tlb &tlb(CoreId core) { return tlbs_[core]; }

    Cycles &clock(CoreId core) { return clocks_[core]; }
    Cycles clock(CoreId core) const { return clocks_[core]; }

    /** Maximum core clock — wall-clock time of the simulated run. */
    Cycles
    maxClock() const
    {
        Cycles m = 0;
        for (Cycles c : clocks_)
            m = std::max(m, c);
        return m;
    }

    /** Minimum core clock — floor of any future transaction's begin. */
    Cycles
    minClock() const
    {
        Cycles m = clocks_[0];
        for (Cycles c : clocks_)
            m = std::min(m, c);
        return m;
    }

    /** Synchronize every core clock to the maximum (barrier). */
    void
    syncClocks()
    {
        Cycles m = maxClock();
        for (auto &c : clocks_)
            c = m;
    }

    /**
     * Charge the receiver side of a flip-current-bit shootdown: every
     * peer in @p peer_mask (as returned by
     * CacheHierarchy::invalidateLineRemote) had a stale copy of the
     * remapped-away line dropped from its private caches and pays the
     * model's receiver cost (a flat bus traversal under broadcast, the
     * trip from @p line's home tile under the mesh directory) to
     * process the message.
     */
    void
    chargeShootdown(CoreId sender, Addr line, const CoreBitmap &peer_mask)
    {
        CoherenceModel &model = coherence();
        peer_mask.forEachSet([&](CoreId c) {
            if (c == sender)
                return;
            clocks_[c] += model.shootdownReceiverCost(c, line);
            model.deliverShootdown(c);
        });
    }

    /** Volatile state lost on power failure (caches, TLBs, DRAM). */
    void
    powerFail()
    {
        caches_.invalidateAll();
        for (auto &tlb : tlbs_)
            tlb.flushAll();
        mem_.powerFail();
        bus().resetTiming();
        conflicts_.reset();
    }

  private:
    SspConfig cfg_;
    PhysMem mem_;
    CacheHierarchy caches_;
    PageTable pt_;
    ConflictManager conflicts_;
    std::vector<Tlb> tlbs_;
    std::vector<Cycles> clocks_;
};

} // namespace ssp

#endif // SSP_CORE_MACHINE_HH
