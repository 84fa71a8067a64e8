#include "core/recovery.hh"

#include <sstream>
#include <unordered_set>

#include "core/ssp_system.hh"

namespace ssp
{

namespace
{

void
violate(RecoveryReport &report, const std::string &msg)
{
    report.ok = false;
    report.violations.push_back(msg);
}

} // namespace

RecoveryReport
verifyRecoveredState(SspSystem &sys)
{
    RecoveryReport report;
    MemController &mc = sys.controller();
    SspCache &cache = mc.cache();

    std::unordered_set<Ppn> owned;
    std::uint64_t valid_slots = 0;
    for (SlotId sid : cache.validSlots()) {
        ++valid_slots;
        const SspCacheEntry &e = cache.entry(sid);
        std::ostringstream tag;
        tag << "slot " << sid << " (vpn " << std::hex << e.vpn << std::dec
            << "): ";

        if (!(e.current == e.committed))
            violate(report, tag.str() + "current != committed");
        if (e.tlbRefCount != 0)
            violate(report, tag.str() + "non-zero TLB refcount");
        if (e.coreRefCount != 0)
            violate(report, tag.str() + "non-zero core refcount");
        if (e.ppn0 == kInvalidPpn || e.ppn1 == kInvalidPpn)
            violate(report, tag.str() + "invalid physical page number");

        if (!sys.machine().pt().isMapped(e.vpn)) {
            violate(report, tag.str() + "vpn not in page table");
        } else if (sys.machine().pt().translate(e.vpn) != e.ppn0) {
            violate(report, tag.str() + "page table does not map to ppn0");
        }

        for (Ppn p : {e.ppn0, e.ppn1}) {
            if (!owned.insert(p).second)
                violate(report, tag.str() + "physical page owned twice");
        }
    }

    if (mc.journal().appendedBytes() != 0)
        violate(report, "journal not truncated after recovery");

    // Every valid slot owns exactly one shadow-duty page (its PPN1), so
    // free pool + valid slots must equal the reserved pool size.
    const std::uint64_t pool_pages = mc.pool().available();
    if (pool_pages + valid_slots != mc.pool().capacity()) {
        std::ostringstream os;
        os << "shadow page accounting mismatch: " << pool_pages
           << " free + " << valid_slots << " slot-owned != "
           << mc.pool().capacity() << " reserved";
        violate(report, os.str());
    }

    return report;
}

} // namespace ssp
