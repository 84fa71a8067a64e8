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
 * lines, fed by the SharerIndex listener hook).  Filling a new line
 * into a full filter evicts the LRU line, and the eviction forces a
 * back-invalidation of the victim's live sharer copies — the inclusion
 * property that lets the filter stay authoritative (JETTY, HPCA '01;
 * the SGI Origin's directory plays the same role, ISCA '97).  Because
 * the listener fires mid-fill, evictions are queued and drained by the
 * hierarchy after the access completes (drainMaintenance), never
 * re-entering the cache arrays.
 */

#ifndef SSP_INTERCONNECT_DIRECTORY_HH
#define SSP_INTERCONNECT_DIRECTORY_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "cache/coherence.hh"
#include "cache/sharer_index.hh"
#include "interconnect/mesh.hh"

namespace ssp
{

/** Mesh directory cost model (see file doc). */
class DirectoryCoherence final : public CoherenceModel,
                                 public SharerListener
{
  public:
    DirectoryCoherence(unsigned num_cores, const CoherenceParams &params);

    // ---- CoherenceModel ------------------------------------------------
    std::unique_ptr<CoherenceModel> clone() const override;
    Cycles flipCurrentBit(CoreId sender, Addr line, const CoreBitmap &peers,
                          Cycles now) override;
    Cycles invalidate(CoreId sender, Addr line, const CoreBitmap &peers,
                      Cycles now) override;
    Cycles shootdownReceiverCost(CoreId receiver, Addr line) const override;

    SharerListener *sharerListener() override { return this; }
    void
    attachBackInvalidator(BackInvalidateFn fn) override
    {
        backInvalidate_ = std::move(fn);
    }
    bool needsMaintenance() const override { return true; }
    void drainMaintenance(Cycles now) override;
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

    // ---- SharerListener ------------------------------------------------
    void lineCached(Addr line) override;
    void lineUncached(Addr line) override;

    const MeshGeometry &mesh() const { return mesh_; }

    /** Lines currently tracked by @p tile's snoop filter. */
    std::size_t
    filterSize(unsigned tile) const
    {
        return filters_[tile].map.size();
    }

  private:
    /**
     * Per-home-tile snoop filter: LRU list of tracked lines, most
     * recently touched at the front, plus the line -> list-node map.
     */
    struct TileFilter
    {
        std::list<Addr> lru;
        std::unordered_map<Addr, std::list<Addr>::iterator> map;

        TileFilter() = default;
        TileFilter(TileFilter &&) = default;
        /** A copy whose map points into its own list.  The map is
         *  copied, not rebuilt, so its bucket layout — and with it any
         *  iteration order — matches @p other's. */
        TileFilter(const TileFilter &other) : lru(other.lru), map(other.map)
        {
            for (auto it = lru.begin(); it != lru.end(); ++it)
                map.find(*it)->second = it;
        }
    };

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

    std::vector<TileFilter> filters_;
    /** Evicted lines awaiting back-invalidation at the next drain. */
    std::vector<Addr> pendingBackInvals_;
    BackInvalidateFn backInvalidate_;

    std::uint64_t lookups_ = 0;
    std::uint64_t hopTraversalCycles_ = 0;
    std::uint64_t filterEvictions_ = 0;
    std::uint64_t backInvals_ = 0;
};

} // namespace ssp

#endif // SSP_INTERCONNECT_DIRECTORY_HH
