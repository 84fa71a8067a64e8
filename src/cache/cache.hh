/**
 * @file
 * One level of set-associative, write-back, write-allocate cache.
 *
 * The simulator keeps functional data in PhysMem, so caches are tag+state
 * arrays only: they decide hit/miss, track dirtiness for write-back
 * accounting, and carry the two SSP extensions from the paper:
 *
 *  - a per-line TX bit marking lines speculatively written by the current
 *    transaction (section 3.5), and
 *  - tag remapping: on the first transactional write to a line, the cached
 *    copy is re-tagged to the "other" physical page instead of performing
 *    a copy-on-write (section 3.2, Figure 4 step 3).
 */

#ifndef SSP_CACHE_CACHE_HH
#define SSP_CACHE_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "common/zeroed_array.hh"

namespace ssp
{

/** Geometry and latency of one cache level. */
struct CacheParams
{
    /** Owned: params objects outlive whatever buffer named them (the
     *  same dangling-pointer class MemTimingParams::name fixed). */
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    /** Lookup latency in core cycles (Table 2: 4 / 6 / 27). */
    Cycles latency = 4;

    bool operator==(const CacheParams &) const = default;
};

/** Result of a cache lookup/allocation. */
struct CacheAccessResult
{
    bool hit = false;
    /** The line was allocated (a miss or a remap filled a way). */
    bool filled = false;
    /** A valid victim was evicted to make room for the fill. */
    bool evicted = false;
    /** The victim was dirty and must be handled by the caller. */
    bool writeback = false;
    /** Line address of the victim (valid when evicted). */
    Addr victimAddr = 0;
    /** TX bit of the dirty victim. */
    bool victimTx = false;
};

/**
 * Tag/state array for one cache level.  True-LRU replacement within the
 * set; victims are reported to the caller, which models the next level.
 *
 * Storage is structure-of-arrays: one packed tag word per line (the
 * 64-byte-aligned line address with the valid/dirty/TX flags packed into
 * the low bits) plus a separate LRU-stamp array.  A whole 8-way set's
 * tags then sit in a single host cache line, so the way scan every
 * access performs touches one line instead of striding across fat
 * structs — the hot loop of the whole simulator at 64 cores.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Copy of @p other's full state (tags, LRU stamps and clock,
     * counters).  Only the chunks of the tag and LRU arrays a fill ever
     * touched are copied, so a big, mostly empty L3 stays lazily mapped
     * in the copy too.
     */
    Cache(const Cache &other);

    /** Zeroes the chunks fills touched and recycles the arrays. */
    ~Cache();

    /**
     * Look up @p line_addr, allocating it on a miss.
     *
     * @param line_addr 64-byte-aligned physical address.
     * @param is_write Marks the line dirty on a write.
     * @return hit/miss and any dirty victim.
     */
    CacheAccessResult access(Addr line_addr, bool is_write);

    /** Look up without allocating; returns true on hit. */
    bool probe(Addr line_addr) const;

    /** True if present and dirty. */
    bool isDirty(Addr line_addr) const;

    /** Clear the dirty bit (after an explicit clwb write-back). */
    void cleanLine(Addr line_addr);

    /** Mark/clear the TX bit on a present line. */
    void setTxBit(Addr line_addr, bool tx);

    /** TX bit of a present line; false if absent. */
    bool txBit(Addr line_addr) const;

    /** Drop a line (no write-back); returns true if it was present. */
    bool invalidate(Addr line_addr);

    /**
     * SSP tag remap: move the state of @p old_addr to @p new_addr.
     * @return true if the old line was present (and thus moved).
     *
     * The dirty bit travels with the line.  The destination must not
     * collide with a live different line in the same slot — if the new
     * tag's set has no free way, the caller receives the victim exactly
     * as in access().
     */
    CacheAccessResult remap(Addr old_addr, Addr new_addr);

    /**
     * Insert a line (used for fills from lower levels / victims from
     * upper levels), returning any dirty victim.
     */
    CacheAccessResult insert(Addr line_addr, bool dirty, bool tx);

    /** Drop everything (simulated power failure). */
    void invalidateAll();

    Cycles latency() const { return params_.latency; }
    const CacheParams &params() const { return params_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

    /** Number of currently valid lines (for tests). */
    std::uint64_t validLines() const;

  private:
    /**
     * Packed tag word: the 64-byte-aligned line address ORed with the
     * state flags in the low bits.  All-zero is the invalid/reset
     * state, so the backing array is a ZeroedArray: a big L3's tag
     * array costs address space, not a touched page per set, until
     * lines actually land in it.
     */
    static constexpr std::uint64_t kValidBit = 1;
    static constexpr std::uint64_t kDirtyBit = 2;
    static constexpr std::uint64_t kTxFlagBit = 4;
    static constexpr std::uint64_t kFlagsMask = kLineSize - 1;
    static constexpr std::uint64_t kTagMask = ~kFlagsMask;
    /** "No such line" sentinel index. */
    static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};
    /** Lines per touched-chunk flag: one 4 KiB page of tag words. */
    static constexpr std::uint64_t kChunkLines = kPageSize / 8;

    std::uint64_t setOf(Addr line_addr) const;
    /** Index of @p line_addr's slot, or kNoLine when absent. */
    std::uint64_t findIdx(Addr line_addr) const;
    /** Victim slot in @p set: first invalid way, else lowest LRU. */
    std::uint64_t victimIn(std::uint64_t set) const;
    void touch(std::uint64_t idx);
    /** Allocate @p line_addr (known absent) over the set's victim. */
    CacheAccessResult fillVictim(Addr line_addr, bool dirty, bool tx);

    /** Call @p fn(first, count) with each touched chunk's line range. */
    template <typename Fn>
    void
    forEachTouchedChunk(Fn &&fn) const
    {
        for (std::uint64_t c = 0; c < touched_.size(); ++c) {
            if (touched_[c] != 0) {
                const std::uint64_t first = c * kChunkLines;
                fn(first, std::min(kChunkLines, numLines_ - first));
            }
        }
    }

    CacheParams params_;
    std::uint64_t numSets_;
    std::uint64_t numLines_;
    /** numLines_ packed tag words, set-major; zeroed (see above). */
    ZeroedArray<std::uint64_t> tags_;
    /** numLines_ LRU stamps, parallel to tags_. */
    ZeroedArray<std::uint64_t> lru_;
    /**
     * One flag per kChunkLines-line chunk of tags_ and lru_: set once a
     * fill lands in the chunk.  Every other write hits a valid line,
     * so an unflagged chunk is still all zero — copies and power
     * failures skip it without reading it.
     */
    std::vector<std::uint8_t> touched_;
    std::uint64_t lruClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace ssp

#endif // SSP_CACHE_CACHE_HH
