#include "nvram/ssp_cache.hh"

#include "common/logging.hh"

namespace ssp
{

SspCache::SspCache(unsigned num_slots, const SspCacheLatencyParams &latency)
    : latency_(latency)
{
    ssp_assert(num_slots > 0);
    slots_.resize(num_slots);
    persistent_.resize(num_slots);
    freeSlots_.reserve(num_slots);
    for (unsigned i = 0; i < num_slots; ++i)
        freeSlots_.push_back(num_slots - 1 - i); // allocate low slots first
}

SlotId
SspCache::findSlot(Vpn vpn) const
{
    auto it = byVpn_.find(vpn);
    return it == byVpn_.end() ? kInvalidSlot : it->second;
}

SlotId
SspCache::allocateSlot(Vpn vpn, SspCacheEntry *evicted)
{
    ssp_assert(findSlot(vpn) == kInvalidSlot, "vpn already has a slot");
    if (freeSlots_.empty()) {
        // Evict a consolidated (committed bitmap zero), unreferenced,
        // quiescent entry — the paper's replacement rule.
        for (SlotId sid = 0; sid < slots_.size(); ++sid) {
            SspCacheEntry &e = slots_[sid];
            if (e.valid && e.committed.none() && e.tlbRefCount == 0 &&
                e.coreRefCount == 0) {
                if (evicted != nullptr)
                    *evicted = e;
                byVpn_.erase(e.vpn);
                persistent_[sid].valid = false;
                e = SspCacheEntry{};
                freeSlots_.push_back(sid);
                hot_.erase(sid);
                break;
            }
        }
    }
    if (freeSlots_.empty()) {
        // "If under rare conditions the cache entries we reserve are not
        // enough, we can resize the SSP cache" — grow by one slot.
        slots_.emplace_back();
        persistent_.emplace_back();
        freeSlots_.push_back(static_cast<SlotId>(slots_.size() - 1));
    }
    SlotId sid = freeSlots_.back();
    freeSlots_.pop_back();
    SspCacheEntry &e = slots_[sid];
    e = SspCacheEntry{};
    e.valid = true;
    e.vpn = vpn;
    byVpn_[vpn] = sid;
    return sid;
}

void
SspCache::freeSlot(SlotId sid)
{
    SspCacheEntry &e = entry(sid);
    ssp_assert(e.valid);
    ssp_assert(e.tlbRefCount == 0 && e.coreRefCount == 0,
               "freeing a referenced slot");
    byVpn_.erase(e.vpn);
    e = SspCacheEntry{};
    persistent_[sid].valid = false;
    hot_.erase(sid);
    freeSlots_.push_back(sid);
}

SspCacheEntry &
SspCache::entry(SlotId sid)
{
    ssp_assert(sid < slots_.size(), "slot id %u out of range", sid);
    return slots_[sid];
}

const SspCacheEntry &
SspCache::entry(SlotId sid) const
{
    ssp_assert(sid < slots_.size(), "slot id %u out of range", sid);
    return slots_[sid];
}

bool
SspCache::touchHot(SlotId sid)
{
    if (!hot_.contains(sid) && hot_.size() >= latency_.l3ResidentEntries)
        hot_.popLru();
    return hot_.touch(sid);
}

Cycles
SspCache::access(SlotId sid, Cycles now)
{
    const bool hit = touchHot(sid);
    if (latency_.fixedLatency != 0)
        return now + latency_.fixedLatency;
    if (hit) {
        ++hotHits_;
        return now + latency_.hitLatency;
    }
    ++hotMisses_;
    return now + latency_.missLatency;
}

std::uint64_t
SspCache::validEntries() const
{
    std::uint64_t n = 0;
    for (const auto &e : slots_)
        n += e.valid ? 1 : 0;
    return n;
}

std::vector<SlotId>
SspCache::validSlots() const
{
    std::vector<SlotId> out;
    for (SlotId sid = 0; sid < slots_.size(); ++sid) {
        if (slots_[sid].valid)
            out.push_back(sid);
    }
    return out;
}

PersistentSlot &
SspCache::persistentSlot(SlotId sid)
{
    ssp_assert(sid < persistent_.size());
    return persistent_[sid];
}

void
SspCache::powerFail()
{
    for (auto &e : slots_)
        e = SspCacheEntry{};
    byVpn_.clear();
    freeSlots_.clear();
    for (unsigned i = 0; i < slots_.size(); ++i)
        freeSlots_.push_back(static_cast<SlotId>(slots_.size() - 1 - i));
    hot_.clear();
}

void
SspCache::reloadFromPersistent(SlotId sid)
{
    const PersistentSlot &p = persistent_[sid];
    ssp_assert(p.valid, "reloading an invalid persistent slot");
    // The slot must currently be free.
    SspCacheEntry &e = slots_[sid];
    ssp_assert(!e.valid, "reload over a live transient entry");
    e.valid = true;
    e.vpn = p.vpn;
    e.ppn0 = p.ppn0;
    e.ppn1 = p.ppn1;
    e.committed = p.committed;
    e.current = p.committed; // section 4.4: current := committed
    e.tlbRefCount = 0;
    e.coreRefCount = 0;
    byVpn_[p.vpn] = sid;
    std::erase(freeSlots_, sid);
}

} // namespace ssp
