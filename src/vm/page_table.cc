#include "vm/page_table.hh"

#include "common/logging.hh"

namespace ssp
{

PageTable::PageTable(Cycles walk_cycles, std::uint64_t dense_pages)
    : walkCycles_(walk_cycles), densePages_(dense_pages),
      dense_(dense_pages)
{
}

PageTable::PageTable(const PageTable &other)
    : walkCycles_(other.walkCycles_), densePages_(other.densePages_),
      dense_(other.densePages_), overflow_(other.overflow_),
      size_(other.size_)
{
    dense_.copyRange(other.dense_, 0, densePages_);
}

void
PageTable::map(Vpn vpn, Ppn ppn)
{
    ssp_assert(ppn != kInvalidPpn);
    if (vpn < densePages_) {
        if (dense_[vpn] == 0)
            ++size_;
        dense_[vpn] = ppn + 1;
        return;
    }
    size_ += overflow_.contains(vpn) ? 0 : 1;
    overflow_[vpn] = ppn;
}

bool
PageTable::unmap(Vpn vpn)
{
    if (vpn < densePages_) {
        if (dense_[vpn] == 0)
            return false;
        dense_[vpn] = 0;
        --size_;
        return true;
    }
    if (overflow_.erase(vpn) == 0)
        return false;
    --size_;
    return true;
}

bool
PageTable::isMapped(Vpn vpn) const
{
    if (vpn < densePages_)
        return dense_[vpn] != 0;
    return overflow_.contains(vpn);
}

Ppn
PageTable::translate(Vpn vpn) const
{
    if (vpn < densePages_) {
        const std::uint64_t e = dense_[vpn];
        ssp_assert(e != 0, "translate of unmapped vpn %llx",
                   static_cast<unsigned long long>(vpn));
        return e - 1;
    }
    auto it = overflow_.find(vpn);
    ssp_assert(it != overflow_.end(), "translate of unmapped vpn %llx",
               static_cast<unsigned long long>(vpn));
    return it->second;
}

} // namespace ssp
