#include "cache/cache.hh"

#include "cache/sharer_index.hh"
#include "common/logging.hh"

namespace ssp
{

Cache::Cache(const CacheParams &params) : params_(params)
{
    ssp_assert(params.ways > 0);
    const std::uint64_t num_lines = params.sizeBytes / kLineSize;
    ssp_assert(num_lines % params.ways == 0,
               "cache size must be a multiple of ways*line");
    numSets_ = num_lines / params.ways;
    ssp_assert(numSets_ > 0);
    numLines_ = num_lines;
    // All-zero tag words are valid==false.  The arrays are ZeroedArrays,
    // so a 96 MiB L3's tag array costs nothing until its sets actually
    // fill — in every machine a thread builds, not only the first
    // (every sweep cell builds or copies a machine, so eager zeroing
    // was measurable per-cell setup).
    tags_ = ZeroedArray<std::uint64_t>(num_lines);
    lru_ = ZeroedArray<std::uint64_t>(num_lines);
    touched_.assign((num_lines + kChunkLines - 1) / kChunkLines, 0);
}

Cache::Cache(const Cache &other, SharerIndex *sharers)
    : sharers_(sharers), shareCore_(other.shareCore_),
      shareLevel_(other.shareLevel_), params_(other.params_),
      numSets_(other.numSets_), numLines_(other.numLines_),
      tags_(numLines_), lru_(numLines_), touched_(other.touched_),
      lruClock_(other.lruClock_), hits_(other.hits_),
      misses_(other.misses_), evictions_(other.evictions_)
{
    forEachTouchedChunk([&](std::uint64_t first, std::uint64_t n) {
        tags_.copyRange(other.tags_, first, n);
        lru_.copyRange(other.lru_, first, n);
    });
}

Cache::~Cache()
{
    // Only touched chunks were ever written, so zeroing them restores
    // all-zero arrays: the next cache of this size the thread builds
    // reuses their pages instead of faulting in fresh ones.
    forEachTouchedChunk([&](std::uint64_t first, std::uint64_t n) {
        tags_.zeroRange(first, n);
        lru_.zeroRange(first, n);
    });
    tags_.recycle();
    lru_.recycle();
}

std::uint64_t
Cache::setOf(Addr line_addr) const
{
    return (line_addr >> kLineShift) % numSets_;
}

std::uint64_t
Cache::findIdx(Addr line_addr) const
{
    const std::uint64_t base = setOf(line_addr) * params_.ways;
    // One compare per way: tag equality and the valid bit test fold
    // into a single masked comparison against addr|valid.
    const std::uint64_t want = line_addr | kValidBit;
    for (unsigned w = 0; w < params_.ways; ++w) {
        if ((tags_[base + w] & (kTagMask | kValidBit)) == want)
            return base + w;
    }
    return kNoLine;
}

std::uint64_t
Cache::victimIn(std::uint64_t set) const
{
    const std::uint64_t base = set * params_.ways;
    std::uint64_t victim = kNoLine;
    for (unsigned w = 0; w < params_.ways; ++w) {
        if ((tags_[base + w] & kValidBit) == 0)
            return base + w;
        if (victim == kNoLine || lru_[base + w] < lru_[victim])
            victim = base + w;
    }
    return victim;
}

void
Cache::touch(std::uint64_t idx)
{
    lru_[idx] = ++lruClock_;
}

void
Cache::notifyAdd(Addr line_addr)
{
    if (sharers_ != nullptr)
        sharers_->add(shareCore_, shareLevel_, line_addr);
}

void
Cache::notifyRemove(Addr line_addr)
{
    if (sharers_ != nullptr)
        sharers_->remove(shareCore_, shareLevel_, line_addr);
}

CacheAccessResult
Cache::access(Addr line_addr, bool is_write)
{
    ssp_assert_dbg(lineOffset(line_addr) == 0, "unaligned line address");
    CacheAccessResult res;
    const std::uint64_t idx = findIdx(line_addr);
    if (idx != kNoLine) {
        ++hits_;
        res.hit = true;
        if (is_write)
            tags_[idx] |= kDirtyBit;
        touch(idx);
        return res;
    }
    ++misses_;
    // findIdx() just proved the line absent; go straight to the victim.
    res = fillVictim(line_addr, is_write, false);
    res.hit = false;
    return res;
}

CacheAccessResult
Cache::insert(Addr line_addr, bool dirty, bool tx)
{
    CacheAccessResult res;
    const std::uint64_t idx = findIdx(line_addr);
    if (idx != kNoLine) {
        // Merging an insert into a present line keeps the stickier state.
        tags_[idx] |= (dirty ? kDirtyBit : 0) | (tx ? kTxFlagBit : 0);
        touch(idx);
        return res;
    }
    return fillVictim(line_addr, dirty, tx);
}

CacheAccessResult
Cache::fillVictim(Addr line_addr, bool dirty, bool tx)
{
    CacheAccessResult res;
    const std::uint64_t idx = victimIn(setOf(line_addr));
    const std::uint64_t old = tags_[idx];
    if ((old & kValidBit) != 0) {
        ++evictions_;
        if ((old & kDirtyBit) != 0) {
            res.writeback = true;
            res.victimAddr = old & kTagMask;
            res.victimTx = (old & kTxFlagBit) != 0;
        }
        notifyRemove(old & kTagMask);
    }
    notifyAdd(line_addr);
    touched_[idx / kChunkLines] = 1;
    tags_[idx] = line_addr | kValidBit | (dirty ? kDirtyBit : 0) |
                 (tx ? kTxFlagBit : 0);
    touch(idx);
    return res;
}

bool
Cache::probe(Addr line_addr) const
{
    return findIdx(line_addr) != kNoLine;
}

bool
Cache::isDirty(Addr line_addr) const
{
    const std::uint64_t idx = findIdx(line_addr);
    return idx != kNoLine && (tags_[idx] & kDirtyBit) != 0;
}

void
Cache::cleanLine(Addr line_addr)
{
    const std::uint64_t idx = findIdx(line_addr);
    if (idx != kNoLine)
        tags_[idx] &= ~kDirtyBit;
}

void
Cache::setTxBit(Addr line_addr, bool tx)
{
    const std::uint64_t idx = findIdx(line_addr);
    if (idx != kNoLine) {
        if (tx)
            tags_[idx] |= kTxFlagBit;
        else
            tags_[idx] &= ~kTxFlagBit;
    }
}

bool
Cache::txBit(Addr line_addr) const
{
    const std::uint64_t idx = findIdx(line_addr);
    return idx != kNoLine && (tags_[idx] & kTxFlagBit) != 0;
}

bool
Cache::invalidate(Addr line_addr)
{
    const std::uint64_t idx = findIdx(line_addr);
    if (idx != kNoLine) {
        notifyRemove(line_addr);
        tags_[idx] &= kTagMask;
        return true;
    }
    return false;
}

CacheAccessResult
Cache::remap(Addr old_addr, Addr new_addr)
{
    CacheAccessResult res;
    const std::uint64_t idx = findIdx(old_addr);
    if (idx == kNoLine)
        return res;
    const bool dirty = (tags_[idx] & kDirtyBit) != 0;
    const bool tx = (tags_[idx] & kTxFlagBit) != 0;
    notifyRemove(old_addr);
    tags_[idx] &= kTagMask;
    res = insert(new_addr, dirty, tx);
    res.hit = true; // signals "old line was present and moved"
    return res;
}

void
Cache::invalidateAll()
{
    // Untouched chunks are all zero: skipping them keeps their pages
    // unmapped across simulated power failures.
    forEachTouchedChunk([&](std::uint64_t first, std::uint64_t n) {
        for (std::uint64_t i = first; i < first + n; ++i) {
            // Write only valid slots: invalid slots are behaviorally
            // inert whatever their bytes say (every reader gates on
            // the valid bit).
            if ((tags_[i] & kValidBit) == 0)
                continue;
            notifyRemove(tags_[i] & kTagMask);
            tags_[i] = 0;
            lru_[i] = 0;
        }
    });
}

std::uint64_t
Cache::validLines() const
{
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < numLines_; ++i)
        n += (tags_[i] & kValidBit) != 0 ? 1 : 0;
    return n;
}

} // namespace ssp
