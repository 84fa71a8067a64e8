#include "interconnect/directory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ssp
{

DirectoryCoherence::DirectoryCoherence(unsigned num_cores,
                                       const CoherenceParams &params)
    : CoherenceModel(num_cores),
      mesh_(MeshGeometry::forCores(num_cores, params.meshWidth,
                                   params.meshHeight)),
      hopCycles_(params.hopCycles),
      lookupCycles_(params.directoryLookupCycles),
      filterCapacity_(params.snoopFilterEntries), filters_(mesh_.tiles())
{
}

Cycles
DirectoryCoherence::transact(CoreId sender, Addr line,
                             const CoreBitmap &peers, Cycles now)
{
    const unsigned home = mesh_.homeTile(line);
    // Request to the home plus the final ack back to the sender.
    const unsigned request_hops = 2 * mesh_.distance(mesh_.tileOf(sender),
                                                     home);
    // The home multicasts invalidations to the actual sharers and
    // collects their acks; the sender stalls for the farthest one.
    unsigned worst_sharer_hops = 0;
    std::uint64_t sharer_hops = 0;
    std::uint64_t sharer_count = 0;
    peers.forEachSet([&](CoreId peer) {
        const unsigned d = 2 * mesh_.distance(home, mesh_.tileOf(peer));
        worst_sharer_hops = std::max(worst_sharer_hops, d);
        sharer_hops += d;
        ++sharer_count;
    });
    ++lookups_;
    // One request + one ack, plus an invalidation/ack pair per sharer —
    // against the broadcast model's unconditional numCores-1 fan-out.
    countMessages(2 + 2 * sharer_count);
    hopTraversalCycles_ +=
        hopCycles_ * (request_hops + sharer_hops);
    return now + hopCycles_ * (request_hops + worst_sharer_hops) +
           lookupCycles_;
}

Cycles
DirectoryCoherence::flipCurrentBit(CoreId sender, Addr line,
                                   const CoreBitmap &peers, Cycles now)
{
    countFlip(sender);
    // Single-core machines have no peers and no mesh to cross; keep
    // parity with the broadcast model's free single-core flips.
    if (numCores() <= 1)
        return now;
    CoreBitmap targets = peers;
    targets.reset(sender);
    return transact(sender, line, targets, now);
}

Cycles
DirectoryCoherence::invalidate(CoreId sender, Addr line,
                               const CoreBitmap &peers, Cycles now)
{
    countInvalidation(sender);
    if (numCores() <= 1)
        return now;
    CoreBitmap targets = peers;
    targets.reset(sender);
    return transact(sender, line, targets, now);
}

Cycles
DirectoryCoherence::shootdownReceiverCost(CoreId receiver, Addr line) const
{
    // The receiver stalls for the invalidation's trip from the line's
    // home tile; a sharer co-located with the home processes it in the
    // directory pipeline itself.
    return hopCycles_ *
           mesh_.distance(mesh_.homeTile(line), mesh_.tileOf(receiver));
}

void
DirectoryCoherence::lineCached(Addr line)
{
    LruSet<Addr> &filter = filters_[mesh_.homeTile(line)];
    // An already tracked line is touched to most-recently-used.
    if (filter.touch(line) || filterCapacity_ == 0 ||
        filter.size() <= filterCapacity_) {
        return;
    }
    // Capacity exceeded: evict the LRU line.  Inclusion demands its
    // live sharer copies be dropped, but this runs inside a cache fill
    // — queue the back-invalidation for the post-access drain instead
    // of re-entering the tag arrays here.
    pendingBackInvals_.push_back(filter.popLru());
    ++filterEvictions_;
}

void
DirectoryCoherence::lineUncached(Addr line)
{
    filters_[mesh_.homeTile(line)].erase(line);
}

bool
DirectoryCoherence::takeBackInvalidation(Addr &line)
{
    if (pendingBackInvals_.empty())
        return false;
    line = pendingBackInvals_.back();
    pendingBackInvals_.pop_back();
    return true;
}

void
DirectoryCoherence::chargeBackInvalidation(Addr line,
                                           const CoreBitmap &dropped)
{
    const unsigned home = mesh_.homeTile(line);
    std::uint64_t dropped_hops = 0;
    std::uint64_t dropped_count = 0;
    dropped.forEachSet([&](CoreId core) {
        dropped_hops += 2 * mesh_.distance(home, mesh_.tileOf(core));
        ++dropped_count;
    });
    backInvals_ += dropped_count;
    countMessages(2 * dropped_count);
    hopTraversalCycles_ += hopCycles_ * dropped_hops;
}

void
DirectoryCoherence::powerFail()
{
    // The filters are home-tile SRAM: volatile, like the caches whose
    // contents they mirror.  Pending evictions die with the copies they
    // would have dropped.
    for (LruSet<Addr> &filter : filters_)
        filter.clear();
    pendingBackInvals_.clear();
}

} // namespace ssp
