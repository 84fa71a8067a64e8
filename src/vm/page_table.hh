/**
 * @file
 * Virtual-to-physical mapping table.
 *
 * Models the OS page table for the persistent heap.  The table itself is
 * durably stored (in NVRAM) as in any persistent-memory system; SSP's
 * page consolidation updates a mapping when it migrates a page's valid
 * data into what used to be the shadow page (paper section 3.4).  Crash
 * consistency of those updates comes from the metadata journal: recovery
 * re-derives the mapping of every *active* page from the SSP cache, so
 * the page-table update itself does not need to be ordered.
 *
 * Storage is a flat, zero-initialized dense array over the first
 * @p dense_pages VPNs (entries store ppn+1, so the all-zero reset state
 * means "unmapped") with an unordered_map spilling any VPN beyond it.
 * The machine sizes the dense range to cover the identity-mapped
 * persistent heap, so every hot-path translation is one array load.
 */

#ifndef SSP_VM_PAGE_TABLE_HH
#define SSP_VM_PAGE_TABLE_HH

#include <cstdint>
#include <unordered_map>

#include "common/types.hh"
#include "common/zeroed_array.hh"

namespace ssp
{

/** VPN -> PPN mapping with page-walk timing. */
class PageTable
{
  public:
    /**
     * @param walk_cycles Cost of a page-table walk in core cycles.
     *        A radix walk is mostly cached; Table 2-class machines see
     *        on the order of tens of cycles.
     * @param dense_pages VPNs [0, dense_pages) live in the flat array;
     *        anything above spills to the overflow map (0 = everything
     *        spills, the standalone-test configuration).
     */
    explicit PageTable(Cycles walk_cycles, std::uint64_t dense_pages = 0);

    /** A deep copy: every mapping, dense and spilled. */
    PageTable(const PageTable &other);
    PageTable &operator=(const PageTable &) = delete;

    /** Install or replace a mapping. */
    void map(Vpn vpn, Ppn ppn);

    /** Remove a mapping; returns true if it existed. */
    bool unmap(Vpn vpn);

    /** True if @p vpn is mapped. */
    bool isMapped(Vpn vpn) const;

    /** Translate; fails (panics) on unmapped pages — the simulated
     *  workloads never touch unmapped persistent memory. */
    Ppn translate(Vpn vpn) const;

    /** Timed page walk. @return completion time. */
    Cycles
    walk(Cycles now) const
    {
        return now + walkCycles_;
    }

    std::uint64_t size() const { return size_; }

    /**
     * Visit every (vpn, ppn) mapping.  The table is persistent — it
     * survives powerFail() untouched — and recovery walks it through
     * here to rebuild free-page pools.
     */
    template <typename Fn>
    void
    forEachEntry(Fn &&fn) const
    {
        for (Vpn vpn = 0; vpn < densePages_; ++vpn) {
            const std::uint64_t e = dense_[vpn];
            if (e != 0)
                fn(vpn, static_cast<Ppn>(e - 1));
        }
        for (const auto &kv : overflow_)
            fn(kv.first, kv.second);
    }

  private:
    Cycles walkCycles_;
    std::uint64_t densePages_;
    /** densePages_ entries of ppn+1 (0 = unmapped); zeroed lazily so
     *  the untouched tail of a big heap costs address space only. */
    ZeroedArray<std::uint64_t> dense_;
    std::unordered_map<Vpn, Ppn> overflow_;
    std::uint64_t size_ = 0;
};

} // namespace ssp

#endif // SSP_VM_PAGE_TABLE_HH
