/**
 * @file
 * Three-level cache hierarchy: private L1D and L2 per core, shared L3,
 * backed by the memory bus (Table 2 geometry).
 *
 * Functional data lives in PhysMem; the hierarchy provides timing, dirty
 * tracking, write-back accounting, and the SSP line-remap operation
 * applied at every level where the line is present.
 */

#ifndef SSP_CACHE_HIERARCHY_HH
#define SSP_CACHE_HIERARCHY_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/coherence.hh"
#include "cache/sharer_index.hh"
#include "common/types.hh"
#include "mem/memory_bus.hh"

namespace ssp
{

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
     * @param force_sharer_index Maintain the sharer index even below
     *        kSharerIndexMinCores — the directory coherence model's
     *        snoop filter is fed by it, so directory-mode machines
     *        need it at every core count.
     */
    CacheHierarchy(unsigned num_cores, const HierarchyParams &params,
                   MemoryBus &bus, bool force_sharer_index = false);

    /**
     * Copy of @p other's caches and sharer index over @p bus.  No
     * coherence model is attached: the owner re-attaches its own copy
     * of the model (attachCoherence), which also re-wires the index's
     * listener.
     */
    CacheHierarchy(const CacheHierarchy &other, MemoryBus &bus);

    CacheHierarchy(const CacheHierarchy &) = delete;
    CacheHierarchy &operator=(const CacheHierarchy &) = delete;

    /**
     * Attach the coherence model (done by Machine after construction).
     * With a model attached, write() invalidates peer-cached copies and
     * charges the sender one coherence event when any existed; without
     * one the hierarchy times every access in isolation (standalone
     * tests).  A model with a sharer listener (the directory snoop
     * filter) is wired into the sharer index here, and its deferred
     * maintenance is drained after every timed access.
     */
    void attachCoherence(CoherenceModel *model);

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

    /** Simulated power failure: all volatile cache state disappears. */
    void invalidateAll();

    Cache &l1(CoreId core) { return *l1s_[core]; }
    Cache &l2(CoreId core) { return *l2s_[core]; }
    Cache &l3() { return *l3_; }
    unsigned numCores() const { return static_cast<unsigned>(l1s_.size()); }

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
    /** Handle a dirty victim evicted from level @p level (0=L1, 1=L2). */
    void handleVictim(CoreId core, unsigned level,
                      const CacheAccessResult &res, Cycles now);

    /**
     * MESI-style write invalidation: drop peer copies of @p line and,
     * when any existed, charge the sender one coherence event on top
     * of @p done.  No-op without an attached model or peers.
     */
    Cycles invalidatePeersOnWrite(CoreId core, Addr line, Cycles done);

    /** read() body; the public wrapper drains coherence maintenance. */
    Cycles readImpl(CoreId core, Addr addr, Cycles now);

    /** write() body; the public wrapper drains coherence maintenance. */
    Cycles writeImpl(CoreId core, Addr addr, Cycles now);

    HierarchyParams params_;
    MemoryBus &bus_;
    CoherenceModel *coherence_ = nullptr;
    /** Set iff coherence_ queues deferred maintenance (the directory
     *  snoop filter); broadcast machines pay one null check only. */
    CoherenceModel *maintenance_ = nullptr;
    bool indexed_ = false;
    SharerIndex sharers_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::vector<std::unique_ptr<Cache>> l2s_;
    std::unique_ptr<Cache> l3_;
};

} // namespace ssp

#endif // SSP_CACHE_HIERARCHY_HH
