/**
 * @file
 * Line-granular sharer index for the cache hierarchy.
 *
 * Maps a physical line address to a kMaxCores-bit presence bitmap over
 * cores: bit c is set exactly when core c holds the line in its private
 * L1 or L2.  The hierarchy that owns the caches and the index mirrors
 * every private-cache fill, eviction and invalidation into it, so
 * peer-visible operations — MESI write invalidation, the SSP
 * flip-current-bit shootdown, the abort-path line drop — probe only
 * the cores that actually hold a copy instead of walking every core's
 * L1+L2 tag arrays.
 *
 * The index is exact, not conservative: an out-of-sync bit would not
 * just cost time, it would change which peers are charged coherence
 * traffic.  tests/test_multicore.cc cross-checks the mask against
 * brute-force tag probes after randomized access/invalidate/remap/
 * power-failure sequences.
 *
 * This per-line bitmap is also the directory coherence model's sharer
 * vector (src/interconnect/): a directory charges by sharer count,
 * which is popcount of exactly this bitmap.  The hierarchy also feeds
 * the directory's capacity-limited snoop filter from the same updates:
 * every private-cache fill, and every remove() that drops a line's
 * last private copy.
 */

#ifndef SSP_CACHE_SHARER_INDEX_HH
#define SSP_CACHE_SHARER_INDEX_HH

#include <cstdint>
#include <unordered_map>

#include "common/bitmap64.hh"
#include "common/types.hh"

namespace ssp
{

/** Tracks which cores' private caches hold each line (see file doc). */
class SharerIndex
{
  public:
    /** Private cache levels feeding the index. */
    static constexpr unsigned kL1 = 0;
    static constexpr unsigned kL2 = 1;

    /** Core @p core's level-@p level cache gained @p line. */
    void
    add(CoreId core, unsigned level, Addr line)
    {
        Masks &m = map_[line];
        (level == kL1 ? m.l1 : m.l2).set(core);
    }

    /**
     * Core @p core's level-@p level cache dropped @p line.
     * @return true when that was the line's last private copy.
     */
    bool
    remove(CoreId core, unsigned level, Addr line)
    {
        auto it = map_.find(line);
        if (it == map_.end())
            return false;
        Masks &m = it->second;
        (level == kL1 ? m.l1 : m.l2).reset(core);
        if ((m.l1 | m.l2).any())
            return false;
        map_.erase(it);
        return true;
    }

    /** Bitmap of cores holding @p line in L1 or L2 (bit c = core c). */
    CoreBitmap
    sharers(Addr line) const
    {
        auto it = map_.find(line);
        return it == map_.end() ? CoreBitmap{}
                                : (it->second.l1 | it->second.l2);
    }

    /** Drop every mapping (bulk alternative to per-line remove). */
    void clear() { map_.clear(); }

    /** Number of lines with at least one private-cache copy. */
    std::size_t trackedLines() const { return map_.size(); }

  private:
    struct Masks
    {
        CoreBitmap l1;
        CoreBitmap l2;
    };

    std::unordered_map<Addr, Masks> map_;
};

} // namespace ssp

#endif // SSP_CACHE_SHARER_INDEX_HH
