#include "cache/hierarchy.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace ssp
{

CacheHierarchy::CacheHierarchy(unsigned num_cores,
                               const HierarchyParams &params, MemoryBus &bus,
                               bool force_sharer_index)
    : params_(params), bus_(bus)
{
    ssp_assert(num_cores > 0);
    ssp_assert(num_cores <= kMaxCores,
               "sharer bitmaps hold at most %u cores", kMaxCores);
    indexed_ = force_sharer_index || num_cores >= kSharerIndexMinCores;
    for (unsigned i = 0; i < num_cores; ++i) {
        l1s_.push_back(std::make_unique<Cache>(params.l1));
        l2s_.push_back(std::make_unique<Cache>(params.l2));
        // Small machines never consult the index; skip the bookkeeping
        // entirely so their fills stay hash-free.
        if (indexed_) {
            l1s_.back()->attachSharerIndex(&sharers_, i, SharerIndex::kL1);
            l2s_.back()->attachSharerIndex(&sharers_, i, SharerIndex::kL2);
        }
    }
    l3_ = std::make_unique<Cache>(params.l3);
}

CacheHierarchy::CacheHierarchy(const CacheHierarchy &other, MemoryBus &bus)
    : params_(other.params_), bus_(bus), indexed_(other.indexed_),
      sharers_(other.sharers_)
{
    sharers_.attachListener(nullptr);
    SharerIndex *index = indexed_ ? &sharers_ : nullptr;
    for (std::size_t i = 0; i < other.l1s_.size(); ++i) {
        l1s_.push_back(std::make_unique<Cache>(*other.l1s_[i], index));
        l2s_.push_back(std::make_unique<Cache>(*other.l2s_[i], index));
    }
    l3_ = std::make_unique<Cache>(*other.l3_, nullptr);
}

void
CacheHierarchy::attachCoherence(CoherenceModel *model)
{
    coherence_ = model;
    maintenance_ = nullptr;
    if (model == nullptr)
        return;
    if (SharerListener *listener = model->sharerListener()) {
        ssp_assert(indexed_,
                   "a coherence model with a sharer listener needs the "
                   "sharer index (force_sharer_index)");
        sharers_.attachListener(listener);
    }
    if (model->needsMaintenance())
        maintenance_ = model;
}

void
CacheHierarchy::handleVictim(CoreId core, unsigned level,
                             const CacheAccessResult &res, Cycles now)
{
    if (!res.writeback)
        return;
    if (level == 0) {
        // L1 victim falls into L2.
        auto r2 = l2s_[core]->insert(res.victimAddr, true, res.victimTx);
        handleVictim(core, 1, r2, now);
    } else if (level == 1) {
        // L2 victim falls into L3.
        auto r3 = l3_->insert(res.victimAddr, true, res.victimTx);
        handleVictim(core, 2, r3, now);
    } else {
        // L3 victim goes to memory.  Background bandwidth: occupies a
        // bank but nobody stalls on it.  The victim's TX bit picks the
        // Figure 6/7 category: a speculative (pre-commit) line is not
        // committed transactional data — if its transaction aborts the
        // write was wasted — so it must not inflate the Data series.
        const WriteCategory cat =
            res.victimTx ? WriteCategory::Other : WriteCategory::Data;
        bus_.issueWrite(res.victimAddr, cat, now, true);
    }
}

Cycles
CacheHierarchy::read(CoreId core, Addr addr, Cycles now)
{
    const Cycles done = readImpl(core, addr, now);
    if (maintenance_ != nullptr)
        maintenance_->drainMaintenance(done);
    return done;
}

Cycles
CacheHierarchy::readImpl(CoreId core, Addr addr, Cycles now)
{
    const Addr line = lineBase(addr);
    Cache &l1 = *l1s_[core];
    Cache &l2 = *l2s_[core];

    auto r1 = l1.access(line, false);
    Cycles done = now + l1.latency();
    handleVictim(core, 0, r1, now);
    if (r1.hit)
        return done;

    auto r2 = l2.access(line, false);
    done += l2.latency();
    handleVictim(core, 1, r2, now);
    if (r2.hit)
        return done;

    auto r3 = l3_->access(line, false);
    done += l3_->latency();
    handleVictim(core, 2, r3, now);
    if (r3.hit)
        return done;

    return bus_.issueRead(line, done);
}

Cycles
CacheHierarchy::write(CoreId core, Addr addr, Cycles now)
{
    const Cycles done = writeImpl(core, addr, now);
    if (maintenance_ != nullptr)
        maintenance_->drainMaintenance(done);
    return done;
}

Cycles
CacheHierarchy::writeImpl(CoreId core, Addr addr, Cycles now)
{
    const Addr line = lineBase(addr);
    Cache &l1 = *l1s_[core];
    Cache &l2 = *l2s_[core];

    auto r1 = l1.access(line, true);
    Cycles done = now + l1.latency();
    handleVictim(core, 0, r1, now);
    if (r1.hit)
        return invalidatePeersOnWrite(core, line, done);

    // Write-allocate: fetch through the lower levels.
    auto r2 = l2.access(line, false);
    done += l2.latency();
    handleVictim(core, 1, r2, now);
    if (r2.hit)
        return invalidatePeersOnWrite(core, line, done);

    auto r3 = l3_->access(line, false);
    done += l3_->latency();
    handleVictim(core, 2, r3, now);
    if (r3.hit)
        return invalidatePeersOnWrite(core, line, done);

    return invalidatePeersOnWrite(core, line, bus_.issueRead(line, done));
}

Cycles
CacheHierarchy::invalidatePeersOnWrite(CoreId core, Addr line, Cycles done)
{
    if (coherence_ == nullptr || numCores() <= 1)
        return done;
    // Peer copies are clean (only the lock holder dirties a page
    // mid-transaction and commit cleans its lines), so dropping
    // without write-back loses nothing.
    if (!indexed_) {
        // Small machine: brute-force probe of every peer's L1+L2.
        CoreBitmap peers;
        for (CoreId c = 0; c < numCores(); ++c) {
            if (c == core)
                continue;
            const bool in_l1 = l1s_[c]->invalidate(line);
            const bool in_l2 = l2s_[c]->invalidate(line);
            if (in_l1 || in_l2) {
                peers.set(c);
                coherence_->deliverInvalidation(c);
            }
        }
        return peers.any()
                   ? coherence_->invalidate(core, line, peers, done)
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
        const bool in_l1 = l1s_[c]->invalidate(line);
        const bool in_l2 = l2s_[c]->invalidate(line);
        ssp_assert_dbg(in_l1 || in_l2, "sharer index out of sync");
        coherence_->deliverInvalidation(c);
    });
    return coherence_->invalidate(core, line, peers, done);
}

Cycles
CacheHierarchy::flushLine(CoreId core, Addr addr, WriteCategory cat,
                          Cycles now, bool background)
{
    const Addr line = lineBase(addr);
    bool dirty = false;
    if (l1s_[core]->isDirty(line)) {
        l1s_[core]->cleanLine(line);
        dirty = true;
    }
    if (l2s_[core]->isDirty(line)) {
        l2s_[core]->cleanLine(line);
        dirty = true;
    }
    if (l3_->isDirty(line)) {
        l3_->cleanLine(line);
        dirty = true;
    }
    // A line dirty in a *different* core's private caches belongs to that
    // core's ongoing transaction; locking at the workload level prevents
    // cross-core flushes of speculative data.
    if (!dirty)
        return now;
    return bus_.issueWrite(line, cat, now, background);
}

void
CacheHierarchy::invalidateLine(Addr addr)
{
    const Addr line = lineBase(addr);
    if (indexed_) {
        sharers_.sharers(line).forEachSet([&](CoreId c) {
            l1s_[c]->invalidate(line);
            l2s_[c]->invalidate(line);
        });
    } else {
        for (auto &l1 : l1s_)
            l1->invalidate(line);
        for (auto &l2 : l2s_)
            l2->invalidate(line);
    }
    l3_->invalidate(line);
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
            if (c == sender)
                continue;
            const bool in_l1 = l1s_[c]->invalidate(line);
            const bool in_l2 = l2s_[c]->invalidate(line);
            if (in_l1 || in_l2)
                peers.set(c);
        }
        return peers;
    }
    CoreBitmap peers = sharers_.sharers(line);
    peers.reset(sender);
    peers.forEachSet([&](CoreId c) {
        const bool in_l1 = l1s_[c]->invalidate(line);
        const bool in_l2 = l2s_[c]->invalidate(line);
        ssp_assert_dbg(in_l1 || in_l2, "sharer index out of sync");
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
            l1s_[c]->isDirty(line) || l2s_[c]->isDirty(line);
        const bool tx = l1s_[c]->txBit(line);
        l1s_[c]->invalidate(line);
        l2s_[c]->invalidate(line);
        if (dirty) {
            auto r3 = l3_->insert(line, true, tx);
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
    auto r1 = l1s_[core]->remap(old_line, new_line);
    handleVictim(core, 0, r1, now);
    auto r2 = l2s_[core]->remap(old_line, new_line);
    handleVictim(core, 1, r2, now);
    auto r3 = l3_->remap(old_line, new_line);
    handleVictim(core, 2, r3, now);
    if (maintenance_ != nullptr)
        maintenance_->drainMaintenance(now);
    // Copies of the committed line in other cores' private caches are
    // now tagged with a remapped-away address; the caller shoots them
    // down via invalidateLineRemote() as part of the flip-current-bit
    // broadcast.
}

void
CacheHierarchy::setTxBit(CoreId core, Addr addr, bool tx)
{
    l1s_[core]->setTxBit(lineBase(addr), tx);
}

bool
CacheHierarchy::txBitSet(CoreId core, Addr addr) const
{
    return l1s_[core]->txBit(lineBase(addr));
}

bool
CacheHierarchy::isCached(CoreId core, Addr addr) const
{
    const Addr line = lineBase(addr);
    return l1s_[core]->probe(line) || l2s_[core]->probe(line) ||
           l3_->probe(line);
}

bool
CacheHierarchy::isDirty(CoreId core, Addr addr) const
{
    const Addr line = lineBase(addr);
    return l1s_[core]->isDirty(line) || l2s_[core]->isDirty(line) ||
           l3_->isDirty(line);
}

void
CacheHierarchy::invalidateAll()
{
    for (auto &l1 : l1s_)
        l1->invalidateAll();
    for (auto &l2 : l2s_)
        l2->invalidateAll();
    l3_->invalidateAll();
    ssp_assert_dbg(!indexed_ || sharers_.trackedLines() == 0,
                   "sharer index must drain with the caches");
}

} // namespace ssp
