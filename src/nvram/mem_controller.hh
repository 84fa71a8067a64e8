/**
 * @file
 * The SSP-extended memory controller (paper section 4.1.2).
 *
 * The controller provides centralized storage for SSP metadata (the SSP
 * cache), performs metadata journaling and checkpointing, manages the
 * reserved page pool, and triggers page consolidation when a page's TLB
 * reference count drops to zero.  Cores interact with it through three
 * operations: fetching a page's metadata on a TLB miss, broadcasting
 * flip-current-bit on first transactional writes, and issuing metadata
 * update instructions at commit.
 *
 * Page consolidation (paper sections 3.4 and 4.1.2): when a virtual
 * page's TLB reference count drops to zero the page is inactive; its
 * committed lines are scattered across P0 and P1 and must be merged
 * into one physical page so the other can be reused.  The controller
 * counts the committed bitmap to find the minority side, copies only
 * those lines, journals the resulting mapping change (new PPN0,
 * committed bitmap all-zero) and updates the page table.  It is the
 * only place SSP writes data twice, and it runs off the critical path:
 * the copies occupy NVRAM banks but no core stalls on them.
 *
 * The controller is a plain value: it holds no link to the machine it
 * serves.  Every operation that touches memory, the bus or the page
 * table takes that Machine from its caller, so a copy of the
 * controller is a complete, independent controller.
 */

#ifndef SSP_NVRAM_MEM_CONTROLLER_HH
#define SSP_NVRAM_MEM_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "nvram/free_pages.hh"
#include "nvram/journal.hh"
#include "nvram/ssp_cache.hh"

namespace ssp
{

class Machine;

/** Configuration of the controller. */
struct MemControllerParams
{
    /** SSP cache slots (cores x TLB entries + overprovisioning). */
    unsigned sspCacheSlots = 4 * 64 + 64;
    /** First physical page of the reserved shadow-page pool. */
    Ppn shadowPoolBase = 0;
    /** Number of reserved shadow pages. */
    std::uint64_t shadowPoolPages = 1024;
    /** NVRAM byte address of the metadata journal. */
    Addr journalBase = 0;
    /** Journal area size in bytes. */
    std::uint64_t journalBytes = 1 << 20;
    /**
     * NVRAM area holding the persistent SSP-cache slot lines that
     * checkpoints write.  Must not overlap the journal proper, or
     * checkpoint traffic would alias journal-append lines on the
     * bank/channel layout.  persistentCacheBytes == 0 falls back to
     * overlaying the journal area (direct-constructed unit tests).
     */
    Addr persistentCacheBase = 0;
    std::uint64_t persistentCacheBytes = 0;
    /** Checkpoint when the journal holds this many bytes. */
    std::uint64_t checkpointThresholdBytes = 256 * 1024;
    /** Latency model of the SSP cache. */
    SspCacheLatencyParams latency;
    /** Lines per tracking bit (section 4.3 sub-pages). */
    unsigned subPageLines = 1;
    /** Defer consolidation until the pool runs low (future-work policy;
     *  the paper's implementation is eager). */
    bool lazyConsolidation = false;
    /** Lazy policy: drain when the pool has fewer free pages. */
    std::uint64_t lazyLowWatermark = 64;
    /** Wear leveling: rotate a slot's shadow page every N
     *  consolidations; 0 disables. */
    std::uint64_t wearRotatePeriod = 0;
};

/** Result of a metadata fetch on a TLB miss. */
struct MetadataFetchResult
{
    SlotId sid = kInvalidSlot;
    Ppn ppn0 = kInvalidPpn;
    Ppn ppn1 = kInvalidPpn;
    Cycles doneAt = 0;
};

/** The memory controller. */
class MemController
{
  public:
    explicit MemController(const MemControllerParams &params);

    /**
     * TLB-fill path: after the page walk produced @p ppn0, fetch (or
     * create) the SSP metadata for @p vpn and take a TLB reference.
     * A page whose consolidation copies are still draining is served
     * at once from the controller's buffers (section 4.1.2).
     */
    MetadataFetchResult fetchEntry(Machine &m, Vpn vpn, Ppn ppn0,
                                   Cycles now);

    /** A TLB evicted the translation: drop the reference; on zero, the
     *  page is inactive and is consolidated eagerly. */
    void tlbDeref(Machine &m, SlotId sid, Cycles now);

    /** First transactional write to a page by a core in this tx. */
    void coreRef(SlotId sid);

    /** The page's metadata update (or abort) arrived from that core. */
    void coreDeref(Machine &m, SlotId sid);

    /** flip-current-bit for one line of a page. */
    void flipCurrent(SlotId sid, unsigned line_idx);

    /**
     * Metadata update instruction (commit step 2): journal and apply
     * committed ^= updated for one page.
     * @return completion time (journal append is buffered; the cost here
     *         is the SSP-cache access).
     */
    Cycles metadataUpdate(Machine &m, TxId tid, SlotId sid,
                          Bitmap64 updated, Cycles now);

    /**
     * Append the commit marker and force the journal to NVRAM; the
     * transaction is durable when this returns.  May trigger a
     * checkpoint afterwards (off the critical path).
     */
    Cycles commitTx(Machine &m, TxId tid, Cycles now);

    /** Allocate a fresh transaction ID. */
    TxId beginTx() { return nextTid_++; }

    /** Timed read of a slot's metadata (SSP-cache latency model). */
    Cycles accessSlot(SlotId sid, Cycles now);

    /**
     * Checkpoint now: capture the final durable state of every slot the
     * journal touched into the persistent SSP cache, then truncate.
     */
    void checkpoint(Machine &m, Cycles now);

    /** Simulated power failure (volatile halves vanish). */
    void powerFail();

    /**
     * Recovery (paper section 4.4): rebuild the transient SSP cache from
     * the persistent cache, replay the journal skipping uncommitted
     * transactions, reset current := committed, fix the page table and
     * rebuild the free pool.
     */
    void recover(Machine &m);

    SspCache &cache() { return cache_; }
    MetadataJournal &journal() { return journal_; }
    FreePagePool &pool() { return pool_; }

    /** Pages consolidated so far. */
    std::uint64_t consolidations() const { return consolidations_; }
    /** Lines copied per consolidation. */
    const StatSummary &copiedLines() const { return copiedLines_; }

    std::uint64_t checkpoints() const { return checkpoints_; }
    std::uint64_t metadataUpdates() const { return metadataUpdates_; }
    /** Lazy policy: consolidations canceled because the page became
     *  active again before the background thread reached it. */
    std::uint64_t canceledConsolidations() const
    {
        return canceledConsolidations_;
    }
    /** Pages currently awaiting lazy consolidation. */
    std::size_t pendingConsolidations() const { return pending_.size(); }
    /** Shadow pages rotated for wear leveling. */
    std::uint64_t wearRotations() const { return wearRotations_; }

  private:
    /** Consolidate an inactive slot, or queue it (lazy policy). */
    void maybeConsolidate(Machine &m, SlotId sid, Cycles now);

    /** Run one consolidation now, with wear rotation when due. */
    void consolidateNow(Machine &m, SlotId sid, Cycles now);

    /**
     * Merge slot @p sid's committed lines into one physical page (see
     * file doc).  @pre the slot's TLB and core reference counts are 0.
     */
    void consolidate(Machine &m, SlotId sid, Cycles now);

    /** Lazy policy: drain pending consolidations while the pool is low
     *  (or fully, when @p all is set). */
    void drainPending(Machine &m, Cycles now, bool all);

    /** Move quarantined pages whose Free records are durable into the
     *  pool; force a journal flush only when the pool is empty. */
    void reclaimQuarantine(Machine &m, Cycles now);

    MemControllerParams params_;
    SspCache cache_;
    MetadataJournal journal_;
    FreePagePool pool_;
    TxId nextTid_ = 1;
    std::uint64_t consolidations_ = 0;
    StatSummary copiedLines_;
    std::uint64_t checkpoints_ = 0;
    std::uint64_t metadataUpdates_ = 0;
    std::uint64_t canceledConsolidations_ = 0;
    std::uint64_t wearRotations_ = 0;
    /**
     * Shadow pages released by slot evictions, quarantined until the
     * journal watermark covers their Free record (so recovery can never
     * resurrect a stale owner after the page holds new data).  Pairs of
     * (page, journal byte offset that must be durable).
     */
    std::deque<std::pair<Ppn, std::uint64_t>> quarantine_;

    /** Lazy-consolidation FIFO of inactive slots. */
    std::deque<SlotId> pending_;
    /** Slots currently queued (for O(1) membership/cancellation). */
    std::unordered_set<SlotId> pendingSet_;
};

} // namespace ssp

#endif // SSP_NVRAM_MEM_CONTROLLER_HH
