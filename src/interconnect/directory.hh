/**
 * @file
 * Home-node directory coherence on a 2D mesh.
 *
 * Every coherence event is a directory transaction at the home tile of
 * the target line's page: the request crosses the mesh to the home,
 * one directory lookup resolves the sharer set from the hierarchy's
 * exact SharerIndex bitmap, invalidations multicast to the actual
 * sharers (not to every core, the broadcast model's flat assumption),
 * and the acks return.  The sender stalls for the request round trip,
 * the lookup, and the farthest sharer's invalidation round trip; every
 * traversed hop is also accumulated into hopTraversalCycles so tile
 * placement shows up in the counters, not just in the stall.
 *
 * Sharer tracking is bounded the way real directories bound it: each
 * home tile owns a capacity-limited snoop filter (an LRU over tracked
 * lines, fed by the hierarchy's sharer-index updates).  Filling a new
 * line into a full filter evicts the LRU line, and the eviction forces
 * a back-invalidation of the victim's live sharer copies — the
 * inclusion property that lets the filter stay authoritative (JETTY,
 * HPCA '01; the SGI Origin's directory plays the same role, ISCA '97).
 * Because fills report mid-access, evictions are queued here, and the
 * hierarchy drains them after the access completes
 * (takeBackInvalidation), never re-entering the cache arrays.
 */

#ifndef SSP_INTERCONNECT_DIRECTORY_HH
#define SSP_INTERCONNECT_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "cache/coherence.hh"
#include "common/lru_set.hh"
#include "interconnect/mesh.hh"

namespace ssp
{

/** Mesh directory cost model (see file doc). */
class DirectoryCoherence final : public CoherenceModel
{
  public:
    DirectoryCoherence(unsigned num_cores, const CoherenceParams &params);

    // ---- CoherenceModel ------------------------------------------------
    Cycles flipCurrentBit(CoreId sender, Addr line, const CoreBitmap &peers,
                          Cycles now) override;
    Cycles invalidate(CoreId sender, Addr line, const CoreBitmap &peers,
                      Cycles now) override;
    Cycles shootdownReceiverCost(CoreId receiver, Addr line) const override;
    void powerFail() override;

    std::uint64_t directoryLookups() const override { return lookups_; }
    std::uint64_t
    hopTraversalCycles() const override
    {
        return hopTraversalCycles_;
    }
    std::uint64_t
    snoopFilterEvictions() const override
    {
        return filterEvictions_;
    }
    std::uint64_t backInvalidations() const override { return backInvals_; }

    // ---- snoop filter ---------------------------------------------------
    /** A private cache gained a copy of @p line (called on every fill). */
    void lineCached(Addr line);

    /** The last private-cache copy of @p line was dropped. */
    void lineUncached(Addr line);

    /**
     * Take the most recent filter victim whose private copies must
     * still be dropped.
     * @return false when no back-invalidation is pending.
     */
    bool takeBackInvalidation(Addr &line);

    /** Price the back-invalidation of @p line, whose private copies
     *  were dropped at the cores in @p dropped. */
    void chargeBackInvalidation(Addr line, const CoreBitmap &dropped);

    const MeshGeometry &mesh() const { return mesh_; }

    /** Lines currently tracked by @p tile's snoop filter. */
    std::size_t
    filterSize(unsigned tile) const
    {
        return filters_[tile].size();
    }

  private:
    /**
     * Price one directory transaction from @p sender for @p line with
     * invalidations multicast to @p peers; returns the sender's
     * completion time and accumulates messages and hop cycles.
     */
    Cycles transact(CoreId sender, Addr line, const CoreBitmap &peers,
                    Cycles now);

    MeshGeometry mesh_;
    Cycles hopCycles_;
    Cycles lookupCycles_;
    unsigned filterCapacity_; ///< tracked lines per tile; 0 = unbounded

    /** Per-home-tile snoop filter: the tracked lines in LRU order. */
    std::vector<LruSet<Addr>> filters_;
    /** Evicted lines awaiting back-invalidation at the next drain. */
    std::vector<Addr> pendingBackInvals_;

    std::uint64_t lookups_ = 0;
    std::uint64_t hopTraversalCycles_ = 0;
    std::uint64_t filterEvictions_ = 0;
    std::uint64_t backInvals_ = 0;
};

} // namespace ssp

#endif // SSP_INTERCONNECT_DIRECTORY_HH
