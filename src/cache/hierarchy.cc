#include "cache/hierarchy.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace ssp
{

AnyCoherenceModel
makeCoherenceModel(unsigned num_cores, Cycles broadcast_latency,
                   const CoherenceParams &params)
{
    if (params.mode == CoherenceMode::Directory)
        return DirectoryCoherence(num_cores, params);
    return BroadcastCoherence(num_cores, broadcast_latency);
}

CacheHierarchy::CacheHierarchy(unsigned num_cores,
                               const HierarchyParams &params, MemoryBus bus,
                               AnyCoherenceModel coherence)
    : params_(params), memory_(std::move(bus)),
      model_(std::move(coherence)), l3_(params.l3)
{
    ssp_assert(num_cores > 0);
    addPrivateCaches(num_cores);
}

void
CacheHierarchy::widen(unsigned num_cores)
{
    ssp_assert(directory() == nullptr,
               "the mesh directory's geometry follows the core count");
    coherence().widen(num_cores);
    addPrivateCaches(num_cores);
}

void
CacheHierarchy::addPrivateCaches(unsigned num_cores)
{
    ssp_assert(num_cores >= numCores(), "a machine never loses cores");
    ssp_assert(num_cores <= kMaxCores,
               "sharer bitmaps hold at most %u cores", kMaxCores);
    // Small machines never consult the index, so their fills skip the
    // bookkeeping — except under the directory, whose snoop filter the
    // index feeds at every core count.  The index mirrors every fill,
    // so it can switch on only before the first one.
    const bool indexed =
        num_cores >= kSharerIndexMinCores || directory() != nullptr;
    ssp_assert(indexed == indexed_ || l1s_.empty(),
               "widening across the sharer-index cutover");
    indexed_ = indexed;
    l1s_.reserve(num_cores);
    l2s_.reserve(num_cores);
    while (l1s_.size() < num_cores) {
        l1s_.emplace_back(params_.l1);
        l2s_.emplace_back(params_.l2);
    }
}

void
CacheHierarchy::handleVictim(CoreId core, unsigned level,
                             const CacheAccessResult &res, Cycles now)
{
    if (!res.writeback)
        return;
    if (level == 0) {
        // L1 victim falls into L2.
        auto r2 = l2s_[core].insert(res.victimAddr, true, res.victimTx);
        track(core, SharerIndex::kL2, res.victimAddr, r2);
        handleVictim(core, 1, r2, now);
    } else if (level == 1) {
        // L2 victim falls into L3.
        auto r3 = l3_.insert(res.victimAddr, true, res.victimTx);
        handleVictim(core, 2, r3, now);
    } else {
        // L3 victim goes to memory.  Background bandwidth: occupies a
        // bank but nobody stalls on it.  The victim's TX bit picks the
        // Figure 6/7 category: a speculative (pre-commit) line is not
        // committed transactional data — if its transaction aborts the
        // write was wasted — so it must not inflate the Data series.
        const WriteCategory cat =
            res.victimTx ? WriteCategory::Other : WriteCategory::Data;
        memory_.issueWrite(res.victimAddr, cat, now, true);
    }
}

void
CacheHierarchy::drainBackInvalidations(Cycles now)
{
    DirectoryCoherence *dir = directory();
    if (dir == nullptr)
        return;
    // Dropping the copies fires no new filter evictions (the entry is
    // already gone, and the shared L3 is not indexed) and may write back
    // dirty data — both safe here, outside any in-flight access.
    Addr victim;
    while (dir->takeBackInvalidation(victim))
        dir->chargeBackInvalidation(victim, backInvalidateLine(victim, now));
}

Cycles
CacheHierarchy::read(CoreId core, Addr addr, Cycles now)
{
    const Cycles done = readImpl(core, addr, now);
    drainBackInvalidations(done);
    return done;
}

Cycles
CacheHierarchy::readImpl(CoreId core, Addr addr, Cycles now)
{
    const Addr line = lineBase(addr);
    Cache &l1 = l1s_[core];
    Cache &l2 = l2s_[core];

    auto r1 = l1.access(line, false);
    track(core, SharerIndex::kL1, line, r1);
    Cycles done = now + l1.latency();
    handleVictim(core, 0, r1, now);
    if (r1.hit)
        return done;

    auto r2 = l2.access(line, false);
    track(core, SharerIndex::kL2, line, r2);
    done += l2.latency();
    handleVictim(core, 1, r2, now);
    if (r2.hit)
        return done;

    auto r3 = l3_.access(line, false);
    done += l3_.latency();
    handleVictim(core, 2, r3, now);
    if (r3.hit)
        return done;

    return memory_.issueRead(line, done);
}

Cycles
CacheHierarchy::write(CoreId core, Addr addr, Cycles now)
{
    const Cycles done = writeImpl(core, addr, now);
    drainBackInvalidations(done);
    return done;
}

Cycles
CacheHierarchy::writeImpl(CoreId core, Addr addr, Cycles now)
{
    const Addr line = lineBase(addr);
    Cache &l1 = l1s_[core];
    Cache &l2 = l2s_[core];

    auto r1 = l1.access(line, true);
    track(core, SharerIndex::kL1, line, r1);
    Cycles done = now + l1.latency();
    handleVictim(core, 0, r1, now);
    if (r1.hit)
        return invalidatePeersOnWrite(core, line, done);

    // Write-allocate: fetch through the lower levels.
    auto r2 = l2.access(line, false);
    track(core, SharerIndex::kL2, line, r2);
    done += l2.latency();
    handleVictim(core, 1, r2, now);
    if (r2.hit)
        return invalidatePeersOnWrite(core, line, done);

    auto r3 = l3_.access(line, false);
    done += l3_.latency();
    handleVictim(core, 2, r3, now);
    if (r3.hit)
        return invalidatePeersOnWrite(core, line, done);

    return invalidatePeersOnWrite(core, line, memory_.issueRead(line, done));
}

Cycles
CacheHierarchy::invalidatePeersOnWrite(CoreId core, Addr line, Cycles done)
{
    if (numCores() <= 1)
        return done;
    CoherenceModel &model = coherence();
    // Peer copies are clean (only the lock holder dirties a page
    // mid-transaction and commit cleans its lines), so dropping
    // without write-back loses nothing.
    if (!indexed_) {
        // Small machine: brute-force probe of every peer's L1+L2.
        CoreBitmap peers;
        for (CoreId c = 0; c < numCores(); ++c) {
            if (c != core && invalidatePrivates(c, line)) {
                peers.set(c);
                model.deliverInvalidation(c);
            }
        }
        return peers.any() ? model.invalidate(core, line, peers, done)
                           : done;
    }
    // The sharer index gives the exact peer set, so only actual holders
    // are probed — the same peers the full tag scan used to find, hence
    // the same messages and the same charged cycles.
    CoreBitmap peers = sharers_.sharers(line);
    peers.reset(core);
    if (peers.none())
        return done;
    peers.forEachSet([&](CoreId c) {
        const bool held = invalidatePrivates(c, line);
        ssp_assert_dbg(held, "sharer index out of sync");
        model.deliverInvalidation(c);
    });
    return model.invalidate(core, line, peers, done);
}

Cycles
CacheHierarchy::flushLine(CoreId core, Addr addr, WriteCategory cat,
                          Cycles now, bool background)
{
    const Addr line = lineBase(addr);
    bool dirty = false;
    for (Cache *c : {&l1s_[core], &l2s_[core], &l3_}) {
        if (c->isDirty(line)) {
            c->cleanLine(line);
            dirty = true;
        }
    }
    // A line dirty in a *different* core's private caches belongs to that
    // core's ongoing transaction; locking at the workload level prevents
    // cross-core flushes of speculative data.
    if (!dirty)
        return now;
    return memory_.issueWrite(line, cat, now, background);
}

void
CacheHierarchy::invalidateLine(Addr addr)
{
    const Addr line = lineBase(addr);
    if (indexed_) {
        sharers_.sharers(line).forEachSet(
            [&](CoreId c) { invalidatePrivates(c, line); });
    } else {
        for (CoreId c = 0; c < numCores(); ++c)
            invalidatePrivates(c, line);
    }
    l3_.invalidate(line);
}

CoreBitmap
CacheHierarchy::invalidateLineRemote(CoreId sender, Addr addr)
{
    if (numCores() <= 1)
        return CoreBitmap{};
    const Addr line = lineBase(addr);
    if (!indexed_) {
        CoreBitmap peers;
        for (CoreId c = 0; c < numCores(); ++c) {
            if (c != sender && invalidatePrivates(c, line))
                peers.set(c);
        }
        return peers;
    }
    CoreBitmap peers = sharers_.sharers(line);
    peers.reset(sender);
    peers.forEachSet([&](CoreId c) {
        const bool held = invalidatePrivates(c, line);
        ssp_assert_dbg(held, "sharer index out of sync");
    });
    return peers;
}

CoreBitmap
CacheHierarchy::backInvalidateLine(Addr addr, Cycles now)
{
    const Addr line = lineBase(addr);
    ssp_assert_dbg(indexed_,
                   "back-invalidation needs the sharer index");
    const CoreBitmap dropped = sharers_.sharers(line);
    dropped.forEachSet([&](CoreId c) {
        // A dirty private copy falls into the shared L3 like a normal
        // victim (displacing an L3 victim to memory if needed); clean
        // copies just vanish.  Only one core can hold the line dirty —
        // it is the lock holder's speculative or just-written data.
        const bool dirty =
            l1s_[c].isDirty(line) || l2s_[c].isDirty(line);
        const bool tx = l1s_[c].txBit(line);
        invalidatePrivates(c, line);
        if (dirty) {
            auto r3 = l3_.insert(line, true, tx);
            handleVictim(c, 2, r3, now);
        }
    });
    return dropped;
}

void
CacheHierarchy::remapLine(CoreId core, Addr old_addr, Addr new_addr,
                          Cycles now)
{
    const Addr old_line = lineBase(old_addr);
    const Addr new_line = lineBase(new_addr);
    for (unsigned level : {SharerIndex::kL1, SharerIndex::kL2}) {
        auto r = privateCache(core, level).remap(old_line, new_line);
        if (r.hit && indexed_)
            unshare(core, level, old_line);
        track(core, level, new_line, r);
        handleVictim(core, level, r, now);
    }
    auto r3 = l3_.remap(old_line, new_line);
    handleVictim(core, 2, r3, now);
    drainBackInvalidations(now);
    // Copies of the committed line in other cores' private caches are
    // now tagged with a remapped-away address; the caller shoots them
    // down via invalidateLineRemote() as part of the flip-current-bit
    // broadcast.
}

void
CacheHierarchy::setTxBit(CoreId core, Addr addr, bool tx)
{
    l1s_[core].setTxBit(lineBase(addr), tx);
}

bool
CacheHierarchy::txBitSet(CoreId core, Addr addr) const
{
    return l1s_[core].txBit(lineBase(addr));
}

bool
CacheHierarchy::isCached(CoreId core, Addr addr) const
{
    const Addr line = lineBase(addr);
    return l1s_[core].probe(line) || l2s_[core].probe(line) ||
           l3_.probe(line);
}

bool
CacheHierarchy::isDirty(CoreId core, Addr addr) const
{
    const Addr line = lineBase(addr);
    return l1s_[core].isDirty(line) || l2s_[core].isDirty(line) ||
           l3_.isDirty(line);
}

void
CacheHierarchy::invalidateAll()
{
    for (Cache &l1 : l1s_)
        l1.invalidateAll();
    for (Cache &l2 : l2s_)
        l2.invalidateAll();
    l3_.invalidateAll();
    sharers_.clear();
    coherence().powerFail();
}

} // namespace ssp
