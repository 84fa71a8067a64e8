#include "nvram/mem_controller.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"
#include "core/machine.hh"

namespace ssp
{

MemController::MemController(const MemControllerParams &params)
    : params_(params), cache_(params.sspCacheSlots, params.latency),
      journal_(params.journalBase, params.journalBytes,
               params.checkpointThresholdBytes),
      pool_(params.shadowPoolBase, params.shadowPoolPages)
{
    if (params_.persistentCacheBytes == 0) {
        params_.persistentCacheBase = params_.journalBase;
        params_.persistentCacheBytes =
            std::max<std::uint64_t>(params_.journalBytes, kLineSize);
    }
}

MetadataFetchResult
MemController::fetchEntry(Machine &m, Vpn vpn, Ppn ppn0, Cycles now)
{
    MetadataFetchResult res;
    SlotId sid = cache_.findSlot(vpn);
    if (sid != kInvalidSlot && pendingSet_.contains(sid)) {
        // The page became active again before the background thread got
        // to it: cancel the pending consolidation (the lazy policy's
        // batching win).
        pendingSet_.erase(sid);
        std::erase(pending_, sid);
        ++canceledConsolidations_;
    }
    if (sid == kInvalidSlot) {
        if (params_.lazyConsolidation &&
            pool_.available() < params_.lazyLowWatermark) {
            drainPending(m, now, false);
        }
        SspCacheEntry displaced;
        sid = cache_.allocateSlot(vpn, &displaced);
        if (displaced.valid) {
            // Journal the eviction.  The page must not hold other data
            // until the record (and the consolidation records before
            // it) are durable — it sits in quarantine until the journal
            // watermark passes, so no forced flush is needed here.
            JournalRecord free_rec;
            free_rec.kind = JournalKind::Free;
            free_rec.tid = 0;
            free_rec.sid = sid;
            free_rec.vpn = displaced.vpn;
            free_rec.ppn0 = displaced.ppn0;
            free_rec.ppn1 = displaced.ppn1;
            journal_.append(m.bus(), free_rec, now);
            quarantine_.emplace_back(displaced.ppn1,
                                     journal_.appendedBytes());
        }
        reclaimQuarantine(m, now);
        SspCacheEntry &e = cache_.entry(sid);
        e.ppn0 = ppn0;
        e.ppn1 = pool_.allocate();
        e.committed = Bitmap64{};
        e.current = Bitmap64{};
    } else {
        // An existing entry is authoritative; the page table may lag a
        // consolidation's mapping change, but fetch always returns the
        // slot's view.
    }
    SspCacheEntry &e = cache_.entry(sid);
    ssp_assert(e.valid);
    e.tlbRefCount++;
    res.sid = sid;
    res.ppn0 = e.ppn0;
    res.ppn1 = e.ppn1;
    // A page whose consolidation copies are still draining is served
    // "with minimal delay" (section 4.1.2): the metadata switch is
    // instantaneous and in-flight lines are served from the controller's
    // buffers, so the fill does not wait for the array writes.
    res.doneAt = cache_.access(sid, now);
    return res;
}

void
MemController::tlbDeref(Machine &m, SlotId sid, Cycles now)
{
    SspCacheEntry &e = cache_.entry(sid);
    ssp_assert(e.valid, "tlbDeref on invalid slot");
    ssp_assert(e.tlbRefCount > 0, "tlbRefCount underflow");
    e.tlbRefCount--;
    if (e.tlbRefCount == 0)
        maybeConsolidate(m, sid, now);
}

void
MemController::maybeConsolidate(Machine &m, SlotId sid, Cycles now)
{
    SspCacheEntry &e = cache_.entry(sid);
    // A page written by an in-flight transaction (non-zero core
    // reference count) is not eligible (section 4.2).
    if (e.coreRefCount != 0 || e.tlbRefCount != 0)
        return;
    if (params_.lazyConsolidation) {
        // Defer: queue the page; it is consolidated only when the pool
        // runs low — and canceled for free if it becomes active first.
        if (pendingSet_.insert(sid).second)
            pending_.push_back(sid);
        if (pool_.available() < params_.lazyLowWatermark)
            drainPending(m, now, false);
        return;
    }
    consolidateNow(m, sid, now);
}

void
MemController::consolidateNow(Machine &m, SlotId sid, Cycles now)
{
    consolidate(m, sid, now);
    if (params_.wearRotatePeriod != 0 &&
        consolidations_ % params_.wearRotatePeriod == 0) {
        // Swap the now-idle shadow page for a fresh pool page.  The
        // mapping change is journaled like a consolidation so recovery
        // sees a consistent PPN1.
        SspCacheEntry &e = cache_.entry(sid);
        const Ppn fresh = pool_.exchange(e.ppn1);
        if (fresh != e.ppn1) {
            e.ppn1 = fresh;
            ++wearRotations_;
            JournalRecord rec;
            rec.kind = JournalKind::Consolidate;
            rec.tid = 0;
            rec.sid = sid;
            rec.vpn = e.vpn;
            rec.ppn0 = e.ppn0;
            rec.ppn1 = e.ppn1;
            rec.committed = e.committed;
            journal_.append(m.bus(), rec, now);
        }
    }
}

void
MemController::consolidate(Machine &m, SlotId sid, Cycles now)
{
    SspCacheEntry &e = cache_.entry(sid);
    ssp_assert(e.valid, "consolidating an invalid slot");
    ssp_assert(e.tlbRefCount == 0, "consolidating a TLB-referenced page");
    ssp_assert(e.coreRefCount == 0, "consolidating a page with an "
                                    "in-flight transaction");
    // Quiescent pages must have current == committed: every transaction
    // that flipped current bits either committed (committed caught up) or
    // aborted (current flipped back).
    ssp_assert(e.current == e.committed,
               "inactive page has divergent current/committed bitmaps");

    ++consolidations_;
    const unsigned in_p1 = e.committed.popcount();
    if (in_p1 == 0) {
        // Everything already lives in P0 — pure metadata refresh, no
        // copies and nothing to journal (durable state is unchanged).
        copiedLines_.sample(0);
        return;
    }

    // Copy the minority side's sub-pages over to the majority's page:
    // P1's committed lines into P0, or P0's into P1 — after which the
    // page roles swap so the consolidated page becomes the new P0.
    const unsigned sub_page = params_.subPageLines;
    const unsigned num_bits = static_cast<unsigned>(kLinesPerPage / sub_page);
    const bool keep_p1 = in_p1 > num_bits / 2;
    const Ppn dst = keep_p1 ? e.ppn1 : e.ppn0;
    const Ppn src = keep_p1 ? e.ppn0 : e.ppn1;
    Cycles done = now;
    unsigned copied = 0;
    for (unsigned bit = 0; bit < num_bits; ++bit) {
        if (e.committed.test(bit) == keep_p1)
            continue;
        for (unsigned g = bit * sub_page; g < (bit + 1) * sub_page; ++g) {
            m.mem().copyLine(lineAddr(dst, g), lineAddr(src, g));
            done = std::max(done, m.bus().issueWrite(
                                      lineAddr(dst, g),
                                      WriteCategory::Consolidation, now,
                                      true));
            ++copied;
        }
    }
    if (keep_p1)
        std::swap(e.ppn0, e.ppn1);

    // Durable switch: journal the new mapping + cleared committed
    // bitmap.  The record may persist lazily: until it does, recovery
    // simply sees the old state, which the copies above left fully
    // intact (they only overwrote non-committed lines).  The freed
    // shadow page is not reused before the record is durable.
    e.committed = Bitmap64{};
    e.current = Bitmap64{};
    JournalRecord rec;
    rec.kind = JournalKind::Consolidate;
    rec.tid = 0;
    rec.sid = sid;
    rec.vpn = e.vpn;
    rec.ppn0 = e.ppn0;
    rec.ppn1 = e.ppn1;
    rec.committed = e.committed;
    journal_.append(m.bus(), rec, done);

    // OS page-table update (reads after this walk straight to P0).
    m.pt().map(e.vpn, e.ppn0);
    copiedLines_.sample(copied);
}

void
MemController::reclaimQuarantine(Machine &m, Cycles now)
{
    auto ripe = [this](const std::pair<Ppn, std::uint64_t> &q) {
        return q.second <= journal_.persistedBytes();
    };
    if (pool_.available() == 0 && !quarantine_.empty() &&
        !ripe(quarantine_.front())) {
        // Rare: the pool is dry and the oldest quarantined page's Free
        // record has not streamed out yet — force the flush.
        journal_.flush(m.bus(), now);
    }
    while (!quarantine_.empty() && ripe(quarantine_.front())) {
        pool_.release(quarantine_.front().first);
        quarantine_.pop_front();
    }
}

void
MemController::drainPending(Machine &m, Cycles now, bool all)
{
    while (!pending_.empty() &&
           (all || pool_.available() < params_.lazyLowWatermark)) {
        SlotId sid = pending_.front();
        pending_.pop_front();
        pendingSet_.erase(sid);
        SspCacheEntry &e = cache_.entry(sid);
        if (!e.valid || e.tlbRefCount != 0 || e.coreRefCount != 0) {
            // Became active (or died) while queued: nothing to do.
            ++canceledConsolidations_;
            continue;
        }
        if (e.committed.none()) {
            ++canceledConsolidations_;
            continue; // already consolidated
        }
        consolidateNow(m, sid, now);
    }
}

void
MemController::coreRef(SlotId sid)
{
    SspCacheEntry &e = cache_.entry(sid);
    ssp_assert(e.valid);
    e.coreRefCount++;
}

void
MemController::coreDeref(Machine &m, SlotId sid)
{
    SspCacheEntry &e = cache_.entry(sid);
    ssp_assert(e.valid);
    ssp_assert(e.coreRefCount > 0, "coreRefCount underflow");
    e.coreRefCount--;
    if (e.coreRefCount == 0 && e.tlbRefCount == 0)
        maybeConsolidate(m, sid, 0);
}

void
MemController::flipCurrent(SlotId sid, unsigned line_idx)
{
    SspCacheEntry &e = cache_.entry(sid);
    ssp_assert(e.valid);
    ssp_assert(line_idx < kLinesPerPage);
    e.current.flip(line_idx);
}

Cycles
MemController::metadataUpdate(Machine &m, TxId tid, SlotId sid,
                              Bitmap64 updated, Cycles now)
{
    ++metadataUpdates_;
    SspCacheEntry &e = cache_.entry(sid);
    ssp_assert(e.valid);

    JournalRecord rec;
    rec.kind = JournalKind::Update;
    rec.tid = tid;
    rec.sid = sid;
    rec.vpn = e.vpn;
    rec.ppn0 = e.ppn0;
    rec.ppn1 = e.ppn1;
    rec.committed = e.committed ^ updated;
    journal_.append(m.bus(), rec, now);

    // Apply to the transient entry.  This is safe before the commit
    // marker persists because checkpoints only run at commit boundaries,
    // and recovery replays from persistent state + committed journal
    // records only.
    e.committed ^= updated;
    return cache_.access(sid, now);
}

Cycles
MemController::commitTx(Machine &m, TxId tid, Cycles now)
{
    JournalRecord rec;
    rec.kind = JournalKind::Commit;
    rec.tid = tid;
    journal_.append(m.bus(), rec, now);
    Cycles done = journal_.flush(m.bus(), now);
    if (journal_.needsCheckpoint())
        checkpoint(m, done);
    return done;
}

Cycles
MemController::accessSlot(SlotId sid, Cycles now)
{
    return cache_.access(sid, now);
}

void
MemController::checkpoint(Machine &m, Cycles now)
{
    ++checkpoints_;
    // Capture the final state of every slot the journal touched.
    std::unordered_set<SlotId> touched;
    for (const auto &rec : journal_.allRecords()) {
        if (rec.kind != JournalKind::Commit)
            touched.insert(rec.sid);
    }
    for (SlotId sid : touched) {
        const SspCacheEntry &e = cache_.entry(sid);
        PersistentSlot &p = cache_.persistentSlot(sid);
        if (!e.valid) {
            p.valid = false;
            continue;
        }
        p.valid = true;
        p.vpn = e.vpn;
        p.ppn0 = e.ppn0;
        p.ppn1 = e.ppn1;
        p.committed = e.committed;
        // One persistent-slot line write per captured entry; the
        // checkpointing thread runs in the background, so this only
        // bills bandwidth — it occupies no bank, channel, or bus slot.
        // Each slot still addresses its own line of the persistent-
        // cache area (rather than one shared line) so the traffic maps
        // onto the real bank/channel layout if checkpointing is ever
        // made contending.
        const Addr slot_line =
            params_.persistentCacheBase +
            (static_cast<Addr>(sid) * kLineSize) %
                params_.persistentCacheBytes;
        m.bus().issueWrite(slot_line, WriteCategory::Checkpoint, now, true);
    }
    journal_.truncate();
    // The checkpoint made every journal record durable, so all
    // quarantined shadow pages are safe to reuse.
    while (!quarantine_.empty()) {
        pool_.release(quarantine_.front().first);
        quarantine_.pop_front();
    }
}

void
MemController::powerFail()
{
    cache_.powerFail();
    journal_.powerFail();
    pending_.clear();
    pendingSet_.clear();
    quarantine_.clear();
}

void
MemController::recover(Machine &m)
{
    // 1. Reload transient entries from the persistent cache.
    for (SlotId sid = 0;
         sid < static_cast<SlotId>(cache_.persistentSlots().size());
         ++sid) {
        if (cache_.persistentSlots()[sid].valid)
            cache_.reloadFromPersistent(sid);
    }

    // 2. Replay the journal: first find committed TIDs, then apply
    // records in order, skipping updates of uncommitted transactions.
    auto records = journal_.persistedRecords();
    std::unordered_set<TxId> committed_tids;
    for (const auto &rec : records) {
        if (rec.kind == JournalKind::Commit)
            committed_tids.insert(rec.tid);
    }
    for (const auto &rec : records) {
        if (rec.kind == JournalKind::Commit)
            continue;
        if (rec.kind == JournalKind::Update &&
            !committed_tids.contains(rec.tid)) {
            continue; // aborted / in-flight transaction: skip
        }
        if (rec.kind == JournalKind::Free) {
            // The slot left the SSP cache before the crash; its shadow
            // page belongs to whoever the later records assign it to.
            SlotId freed = cache_.findSlot(rec.vpn);
            if (freed != kInvalidSlot) {
                cache_.persistentSlot(freed).valid = false;
                cache_.freeSlot(freed);
            }
            continue;
        }
        SlotId sid = cache_.findSlot(rec.vpn);
        if (sid == kInvalidSlot) {
            // The slot never made it into a checkpoint; the journal
            // record is its only durable trace.
            sid = cache_.allocateSlot(rec.vpn);
        }
        SspCacheEntry &e = cache_.entry(sid);
        e.ppn0 = rec.ppn0;
        e.ppn1 = rec.ppn1;
        e.committed = rec.committed;
        e.current = rec.committed;
        e.tlbRefCount = 0;
        e.coreRefCount = 0;
    }

    // 3. current := committed is enforced by reload/replay above.
    //    Fix the OS page table for every live slot and account the
    //    shadow pages still owned by slots.
    std::unordered_set<Ppn> owned;
    for (SlotId sid : cache_.validSlots()) {
        const SspCacheEntry &e = cache_.entry(sid);
        m.pt().map(e.vpn, e.ppn0);
        owned.insert(e.ppn0);
        owned.insert(e.ppn1);
    }

    // 4. Rebuild the pool.  Consolidation swaps migrate pages between
    //    heap duty and shadow duty, so the free set is every page below
    //    the end of the reserved range that is neither page-table-mapped
    //    nor owned by a live slot.
    std::unordered_set<Ppn> used = owned;
    m.pt().forEachEntry([&](Vpn, Ppn ppn) { used.insert(ppn); });
    std::vector<Ppn> free_list;
    const Ppn universe_end = params_.shadowPoolBase + params_.shadowPoolPages;
    for (Ppn ppn = 0; ppn < universe_end; ++ppn) {
        if (!used.contains(ppn))
            free_list.push_back(ppn);
    }
    pool_ = FreePagePool::fromList(params_.shadowPoolBase,
                                   params_.shadowPoolPages, free_list);

    // 5. Checkpoint immediately so the persistent cache reflects the
    //    recovered state and the journal restarts empty.
    //    (Recovery-time writes are not part of any measured run.)
    std::unordered_set<SlotId> live;
    for (SlotId sid : cache_.validSlots()) {
        const SspCacheEntry &e = cache_.entry(sid);
        PersistentSlot &p = cache_.persistentSlot(sid);
        p.valid = true;
        p.vpn = e.vpn;
        p.ppn0 = e.ppn0;
        p.ppn1 = e.ppn1;
        p.committed = e.committed;
        live.insert(sid);
    }
    for (SlotId sid = 0;
         sid < static_cast<SlotId>(cache_.persistentSlots().size());
         ++sid) {
        if (!live.contains(sid))
            cache_.persistentSlot(sid).valid = false;
    }
    journal_.truncate();
}

} // namespace ssp
