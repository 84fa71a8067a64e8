#include "nvram/consolidation.hh"

#include "common/logging.hh"

namespace ssp
{

Consolidator::Consolidator(SspCache &cache, MetadataJournal &journal,
                           PageTable &pt, MemoryBus &bus, FreePagePool &pool,
                           unsigned sub_page_lines)
    : cache_(&cache), journal_(&journal), pt_(&pt), bus_(&bus),
      pool_(&pool),
      subPageLines_(sub_page_lines)
{
}

ConsolidationResult
Consolidator::consolidate(SlotId sid, Cycles now)
{
    SspCacheEntry &e = cache_->entry(sid);
    ssp_assert(e.valid, "consolidating an invalid slot");
    ssp_assert(e.tlbRefCount == 0, "consolidating a TLB-referenced page");
    ssp_assert(e.coreRefCount == 0, "consolidating a page with an "
                                    "in-flight transaction");
    // Quiescent pages must have current == committed: every transaction
    // that flipped current bits either committed (committed caught up) or
    // aborted (current flipped back).
    ssp_assert(e.current == e.committed,
               "inactive page has divergent current/committed bitmaps");

    ConsolidationResult res;
    res.sid = sid;
    e.consolidating = true;

    PhysMem &mem = bus_->mem();
    const unsigned num_bits =
        static_cast<unsigned>(kLinesPerPage / subPageLines_);
    const unsigned in_p1 = e.committed.popcount();
    Cycles done = now;

    if (in_p1 == 0) {
        // Everything already lives in P0 — pure metadata refresh, no
        // copies and nothing to journal (durable state is unchanged).
        e.consolidating = false;
        res.doneAt = now;
        ++consolidations_;
        copiedLines_.sample(0);
        return res;
    }

    const bool keep_p1 = in_p1 > num_bits / 2;
    if (!keep_p1) {
        // Minority lives in P1: copy those sub-pages into P0.
        for (unsigned bit = 0; bit < num_bits; ++bit) {
            if (!e.committed.test(bit))
                continue;
            for (unsigned g = bit * subPageLines_;
                 g < (bit + 1) * subPageLines_; ++g) {
                mem.copyLine(lineAddr(e.ppn0, g), lineAddr(e.ppn1, g));
                Cycles t = bus_->issueWrite(lineAddr(e.ppn0, g),
                                           WriteCategory::Consolidation,
                                           now, true);
                done = std::max(done, t);
                ++res.linesCopied;
            }
        }
    } else {
        // Minority lives in P0: copy those sub-pages into P1, then swap
        // the page roles so the consolidated page becomes the new P0.
        for (unsigned bit = 0; bit < num_bits; ++bit) {
            if (e.committed.test(bit))
                continue;
            for (unsigned g = bit * subPageLines_;
                 g < (bit + 1) * subPageLines_; ++g) {
                mem.copyLine(lineAddr(e.ppn1, g), lineAddr(e.ppn0, g));
                Cycles t = bus_->issueWrite(lineAddr(e.ppn1, g),
                                           WriteCategory::Consolidation,
                                           now, true);
                done = std::max(done, t);
                ++res.linesCopied;
            }
        }
        std::swap(e.ppn0, e.ppn1);
        res.swapped = true;
    }

    // Durable switch: journal the new mapping + cleared committed
    // bitmap.  The record may persist lazily: until it does, recovery
    // simply sees the old state, which the copies above left fully
    // intact (they only overwrote non-committed lines).  The controller
    // forces a flush before the freed shadow page can be reused.
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
    journal_->append(rec, done);

    // OS page-table update (reads after this walk straight to P0).
    pt_->map(e.vpn, e.ppn0);

    e.consolidating = false;
    res.doneAt = done;
    ++consolidations_;
    copiedLines_.sample(res.linesCopied);
    return res;
}

} // namespace ssp
