/**
 * @file
 * The simulated machine substrate shared by SSP and the baseline
 * designs: physical memory, the memory bus, the cache hierarchy, the
 * page table, the coherence model, per-core TLBs and per-core clocks.
 */

#ifndef SSP_CORE_MACHINE_HH
#define SSP_CORE_MACHINE_HH

#include <algorithm>
#include <memory>
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
          bus_(mem_, cfg.memSystem()),
          // Directory mode needs the sharer index (its directory state
          // and snoop-filter feed) at every core count, not just past
          // the perf cutover.
          caches_(cfg.numCores, cfg.caches, bus_,
                  cfg.coherence.mode == CoherenceMode::Directory),
          pt_(cfg.pageWalkCycles, cfg.heapPages),
          coherence_(makeCoherenceModel(cfg.numCores, cfg.broadcastLatency,
                                        cfg.coherence)),
          conflicts_(cfg.numCores, cfg.conflicts),
          clocks_(cfg.numCores, 0)
    {
        wireCoherence();
        for (unsigned i = 0; i < cfg.numCores; ++i)
            tlbs_.emplace_back(cfg.tlbEntries);
        // Identity-map the persistent heap up front.  Consolidation may
        // later retarget individual mappings; recovery relies on every
        // heap page having a page-table entry.
        for (std::uint64_t vpn = 0; vpn < cfg.heapPages; ++vpn)
            pt_.map(vpn, vpn);
    }

    /**
     * A copy of @p other's full simulated state — memory image, bus
     * timing, caches and sharer index, page table, coherence model,
     * conflict log, TLBs and clocks — with every internal link pointed
     * at the copy's own members.
     */
    Machine(const Machine &other)
        : cfg_(other.cfg_), mem_(other.mem_), bus_(other.bus_, mem_),
          caches_(other.caches_, bus_), pt_(other.pt_),
          coherence_(other.coherence_->clone()),
          conflicts_(other.conflicts_), tlbs_(other.tlbs_),
          clocks_(other.clocks_)
    {
        wireCoherence();
    }

    Machine &operator=(const Machine &) = delete;

    const SspConfig &cfg() const { return cfg_; }
    PhysMem &mem() { return mem_; }
    MemoryBus &bus() { return bus_; }
    CacheHierarchy &caches() { return caches_; }
    PageTable &pt() { return pt_; }
    CoherenceModel &coherence() { return *coherence_; }
    const CoherenceModel &coherence() const { return *coherence_; }
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
        peer_mask.forEachSet([&](CoreId c) {
            if (c == sender)
                return;
            clocks_[c] += coherence_->shootdownReceiverCost(c, line);
            coherence_->deliverShootdown(c);
        });
    }

    /** Volatile state lost on power failure (caches, TLBs, DRAM). */
    void
    powerFail()
    {
        caches_.invalidateAll();
        coherence_->powerFail();
        for (auto &tlb : tlbs_)
            tlb.flushAll();
        mem_.powerFail();
        bus_.resetTiming();
        conflicts_.reset();
    }

  private:
    /**
     * The hierarchy's write path invalidates peer copies through the
     * coherence model (MESI-style); standalone hierarchies time in
     * isolation.  The directory model's snoop filter is wired to the
     * sharer index inside attachCoherence, and its forced filter
     * evictions drop live copies through backInvalidateLine.
     */
    void
    wireCoherence()
    {
        caches_.attachCoherence(coherence_.get());
        coherence_->attachBackInvalidator([this](Addr line, Cycles now) {
            return caches_.backInvalidateLine(line, now);
        });
    }

    SspConfig cfg_;
    PhysMem mem_;
    MemoryBus bus_;
    CacheHierarchy caches_;
    PageTable pt_;
    std::unique_ptr<CoherenceModel> coherence_;
    ConflictManager conflicts_;
    std::vector<Tlb> tlbs_;
    std::vector<Cycles> clocks_;
};

} // namespace ssp

#endif // SSP_CORE_MACHINE_HH
