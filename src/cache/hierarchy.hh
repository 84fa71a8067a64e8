/**
 * @file
 * Three-level cache hierarchy: private L1D and L2 per core, shared L3,
 * backed by the memory bus (Table 2 geometry).
 *
 * Functional data lives in PhysMem; the hierarchy provides timing, dirty
 * tracking, write-back accounting, and the SSP line-remap operation
 * applied at every level where the line is present.
 *
 * The hierarchy is a plain value.  It owns everything its accesses
 * reach — the caches, the sharer index, the coherence model and the
 * memory bus below the caches — so the compiler's copy of it is a
 * complete, independent hierarchy.
 */

#ifndef SSP_CACHE_HIERARCHY_HH
#define SSP_CACHE_HIERARCHY_HH

#include <variant>
#include <vector>

#include "cache/cache.hh"
#include "cache/coherence.hh"
#include "cache/sharer_index.hh"
#include "common/types.hh"
#include "interconnect/directory.hh"
#include "mem/memory_bus.hh"

namespace ssp
{

/** One coherence cost model, held by value. */
using AnyCoherenceModel = std::variant<BroadcastCoherence, DirectoryCoherence>;

/**
 * Build the coherence model @p params selects: the flat BroadcastCoherence
 * bus (priced by @p broadcast_latency) or the mesh DirectoryCoherence
 * model from src/interconnect/.
 */
AnyCoherenceModel makeCoherenceModel(unsigned num_cores,
                                     Cycles broadcast_latency,
                                     const CoherenceParams &params);

/** Geometry of the full hierarchy. */
struct HierarchyParams
{
    CacheParams l1{"l1d", 32 * 1024, 8, 4};
    CacheParams l2{"l2", 256 * 1024, 8, 6};
    CacheParams l3{"l3", 12 * 1024 * 1024, 16, 27};

    bool operator==(const HierarchyParams &) const = default;
};

/**
 * The cache hierarchy of the simulated machine.
 *
 * All addresses are physical line addresses.  The model is exclusive-ish
 * and simple: fills allocate in every level on the path; dirty victims
 * fall one level down; dirty L3 victims are written back to memory as
 * WriteCategory::Data (logs and journals never pass through the caches —
 * hardware logging designs stream them past the hierarchy).
 */
class CacheHierarchy
{
  public:
    /**
     * @param bus The memory below the shared L3.
     * @param coherence Prices write invalidations: write() drops
     *        peer-cached copies and charges the sender one coherence
     *        event when any existed.  A directory model's snoop filter
     *        is fed from the sharer index — which directory machines
     *        therefore keep at every core count — and its forced
     *        evictions are drained after every timed access.
     */
    CacheHierarchy(unsigned num_cores, const HierarchyParams &params,
                   MemoryBus bus, AnyCoherenceModel coherence);

    /**
     * Grow to @p num_cores cores (at least the current count): the
     * added cores get empty private caches and the coherence model
     * their per-core counters, as in a fresh hierarchy that only the
     * existing cores have used.  Only under broadcast, whose costs do
     * not depend on the core count (the directory's mesh does), and
     * only where the sharer-index choice stays the same.
     */
    void widen(unsigned num_cores);

    /** Timed read of the line containing @p addr. */
    Cycles read(CoreId core, Addr addr, Cycles now);

    /** Timed write (write-allocate) of the line containing @p addr. */
    Cycles write(CoreId core, Addr addr, Cycles now);

    /**
     * clwb semantics: if the line is dirty anywhere in the hierarchy,
     * write it back to memory (category @p cat) and clean it; the line
     * stays cached.  Returns the completion time of the write-back (or
     * @p now when nothing was dirty).
     */
    Cycles flushLine(CoreId core, Addr addr, WriteCategory cat, Cycles now,
                     bool background = false);

    /** Drop a line everywhere without write-back (SSP abort path). */
    void invalidateLine(Addr addr);

    /**
     * Flip-current-bit shootdown: drop the line from every core's
     * private caches *except* @p sender's.  Used when an SSP CoW remap
     * moves the committed copy of a line to the "other" physical page —
     * peer copies tagged with the remapped-away address are stale and
     * must never be written back to the old location.  Copies are
     * dropped without write-back: only the lock-holding core can have a
     * dirty copy of a page inside a transaction, and commit cleans it,
     * so peer copies are clean by construction.
     *
     * @return Bitmap of peer cores that held a copy (bit c = core c);
     *         the caller charges receiver cost and counts the messages.
     */
    CoreBitmap invalidateLineRemote(CoreId sender, Addr addr);

    /**
     * Snoop-filter back-invalidation: drop every private-cache copy of
     * @p addr's line.  A dirty copy falls into the shared L3 first (as
     * a normal dirty victim would), so no write is lost — dropping a
     * dirty pre-commit line outright would corrupt the durability
     * accounting its commit-time flush depends on.  Called by the
     * directory coherence model's maintenance drain, never mid-access.
     *
     * @return Bitmap of cores that held a copy.
     */
    CoreBitmap backInvalidateLine(Addr addr, Cycles now);

    /**
     * SSP first-transactional-write remap: move the cached copy of
     * @p old_addr (committed location) so it tags @p new_addr (the
     * "other" physical page).  If the old copy is not cached, the caller
     * has already paid for the fill.  Dirty victims displaced by the
     * re-tagged line are handled as normal write-backs.
     */
    void remapLine(CoreId core, Addr old_addr, Addr new_addr, Cycles now);

    /** Mark or clear the TX bit in the L1 copy. */
    void setTxBit(CoreId core, Addr addr, bool tx);

    /**
     * True when the L1 copy of @p addr carries the TX bit — i.e. the
     * line is speculative state of @p core's open transaction.  The
     * ConflictManager's per-transaction write set is the virtual-line
     * view of exactly these physical lines (see tests/test_conflicts).
     */
    bool txBitSet(CoreId core, Addr addr) const;

    /** True if the line is present in any level. */
    bool isCached(CoreId core, Addr addr) const;

    /** True if the line is dirty in any level. */
    bool isDirty(CoreId core, Addr addr) const;

    /**
     * Simulated power failure: all volatile cache state disappears,
     * with the sharer index and the coherence model's filters that
     * mirror it.
     */
    void invalidateAll();

    Cache &l1(CoreId core) { return l1s_[core]; }
    Cache &l2(CoreId core) { return l2s_[core]; }
    Cache &l3() { return l3_; }
    unsigned numCores() const { return static_cast<unsigned>(l1s_.size()); }

    MemoryBus &bus() { return memory_; }
    const MemoryBus &bus() const { return memory_; }

    /** The coherence model, whichever of the two it is. */
    CoherenceModel &
    coherence()
    {
        return std::visit([](CoherenceModel &m) -> auto & { return m; },
                          model_);
    }

    const CoherenceModel &
    coherence() const
    {
        return std::visit(
            [](const CoherenceModel &m) -> auto & { return m; }, model_);
    }

    /**
     * Smallest core count whose hierarchy maintains the sharer index:
     * below this, brute-force peer probes touch so few tag arrays that
     * the index's per-fill bookkeeping costs more than it saves.  The
     * cutover is invisible in simulated time — both paths find exactly
     * the same peer set (tests/test_multicore.cc checks the index
     * against brute-force probes).
     */
    static constexpr unsigned kSharerIndexMinCores = 5;

    /** True when this hierarchy maintains the sharer index. */
    bool sharerIndexed() const { return indexed_; }

    /**
     * The line-granular sharer index over all private L1/L2 caches.
     * Peer-directed operations iterate its masks instead of probing
     * every core's tag arrays; only maintained (and only meaningful)
     * when sharerIndexed().
     */
    const SharerIndex &sharerIndex() const { return sharers_; }

  private:
    /** Core @p core's private cache at sharer-index level @p level. */
    Cache &
    privateCache(CoreId core, unsigned level)
    {
        return level == SharerIndex::kL1 ? l1s_[core] : l2s_[core];
    }

    /** The directory model, or nullptr under broadcast. */
    DirectoryCoherence *
    directory()
    {
        return std::get_if<DirectoryCoherence>(&model_);
    }

    /**
     * Mirror a private-cache operation of core @p core at @p level into
     * the sharer index (and the directory's snoop filter): the victim
     * @p res evicted leaves, and @p line arrives when @p res filled it.
     */
    void
    track(CoreId core, unsigned level, Addr line,
          const CacheAccessResult &res)
    {
        if (!indexed_)
            return;
        if (res.evicted)
            unshare(core, level, res.victimAddr);
        if (res.filled) {
            sharers_.add(core, level, line);
            if (DirectoryCoherence *dir = directory())
                dir->lineCached(line);
        }
    }

    /** @p line left core @p core's level-@p level cache. */
    void
    unshare(CoreId core, unsigned level, Addr line)
    {
        if (!sharers_.remove(core, level, line))
            return;
        if (DirectoryCoherence *dir = directory())
            dir->lineUncached(line);
    }

    /** Drop @p line from core @p core's level-@p level cache; true
     *  when it was there. */
    bool
    invalidatePrivate(CoreId core, unsigned level, Addr line)
    {
        if (!privateCache(core, level).invalidate(line))
            return false;
        if (indexed_)
            unshare(core, level, line);
        return true;
    }

    /** Drop @p line from core @p core's L1 and L2; true when either
     *  held it. */
    bool
    invalidatePrivates(CoreId core, Addr line)
    {
        const bool in_l1 = invalidatePrivate(core, SharerIndex::kL1, line);
        const bool in_l2 = invalidatePrivate(core, SharerIndex::kL2, line);
        return in_l1 || in_l2;
    }

    /** Append empty private caches up to @p num_cores cores. */
    void addPrivateCaches(unsigned num_cores);

    /** Handle a dirty victim evicted from level @p level (0=L1, 1=L2). */
    void handleVictim(CoreId core, unsigned level,
                      const CacheAccessResult &res, Cycles now);

    /**
     * MESI-style write invalidation: drop peer copies of @p line and,
     * when any existed, charge the sender one coherence event on top
     * of @p done.  No-op without peers.
     */
    Cycles invalidatePeersOnWrite(CoreId core, Addr line, Cycles done);

    /** Back-invalidate every line the directory's snoop filter evicted
     *  during the access that just completed (no-op under broadcast). */
    void drainBackInvalidations(Cycles now);

    /** read() body; the public wrapper drains back-invalidations. */
    Cycles readImpl(CoreId core, Addr addr, Cycles now);

    /** write() body; the public wrapper drains back-invalidations. */
    Cycles writeImpl(CoreId core, Addr addr, Cycles now);

    HierarchyParams params_;
    MemoryBus memory_;
    AnyCoherenceModel model_;
    bool indexed_ = false;
    SharerIndex sharers_;
    std::vector<Cache> l1s_;
    std::vector<Cache> l2s_;
    Cache l3_;
};

} // namespace ssp

#endif // SSP_CACHE_HIERARCHY_HH
