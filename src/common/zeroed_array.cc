#include "common/zeroed_array.hh"

#include <sys/mman.h>

#include <cstdlib>
#include <utility>

#include "common/logging.hh"

namespace ssp
{

namespace
{

/** Arrays from this size up get their own mapping (see file doc). */
constexpr std::size_t kMmapBytes = std::size_t{1} << 20;

/**
 * Most recycled mappings a thread keeps: the two arrays of one
 * machine's shared cache.  A setup group's copies hand theirs on to the
 * next copy, and the original's to the next group's build.  Keeping a
 * second machine's worth as well saves each group's first copy its page
 * faults, but leaves those pages resident while a worker runs a group
 * of one, which grows the peak across workers by more than it saves.
 */
constexpr std::size_t kKeptMappings = 2;

/** @{ A thread's recycled all-zero mappings.  Trivially destructible,
 *  so they stay usable while the thread's other objects are destroyed;
 *  keeping is cleared once the exit hook below has unmapped them. */
thread_local std::pair<void *, std::size_t> kept[kKeptMappings];
thread_local std::size_t keptCount = 0;
thread_local bool keeping = true;
/** @} */

/** Unmaps the thread's kept mappings when the thread exits. */
struct KeptRelease
{
    bool armed = false;

    ~KeptRelease()
    {
        for (std::size_t i = 0; i < keptCount; ++i)
            munmap(kept[i].first, kept[i].second);
        keptCount = 0;
        keeping = false;
    }
};

thread_local KeptRelease keptRelease;

} // namespace

void *
allocZeroed(std::size_t bytes)
{
    if (bytes == 0)
        return nullptr;
    void *p;
    if (bytes >= kMmapBytes) {
        for (std::size_t i = 0; i < keptCount; ++i) {
            if (kept[i].second == bytes) {
                p = kept[i].first;
                kept[i] = kept[--keptCount];
                return p;
            }
        }
        p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            p = nullptr;
    } else {
        p = std::calloc(1, bytes);
    }
    ssp_assert(p != nullptr, "cannot allocate %zu zeroed bytes", bytes);
    return p;
}

void
freeZeroed(void *p, std::size_t bytes) noexcept
{
    if (p == nullptr)
        return;
    if (bytes >= kMmapBytes)
        munmap(p, bytes);
    else
        std::free(p);
}

void
recycleZeroed(void *p, std::size_t bytes) noexcept
{
    if (p != nullptr && bytes >= kMmapBytes && keeping &&
        keptCount < kKeptMappings) {
        keptRelease.armed = true; // registers the exit hook
        kept[keptCount++] = {p, bytes};
        return;
    }
    freeZeroed(p, bytes);
}

} // namespace ssp
