#include "baselines/baseline_base.hh"

#include "common/logging.hh"

namespace ssp
{

BaselineBase::BaselineBase(const SspConfig &cfg)
    : machine_(cfg), tx_(cfg.numCores)
{
}

void
BaselineBase::widen(unsigned num_cores)
{
    machine_.widen(num_cores);
    tx_.resize(num_cores);
    addCores();
}

void
BaselineBase::carvePerCoreLogs(std::vector<PersistLog> &logs,
                               WriteCategory category,
                               bool line_padded) const
{
    const SspConfig &c = cfg();
    // Line-align the per-core carve: at non-power-of-two core counts a
    // plain division would misalign every region past the first.
    const std::uint64_t per_core = lineBase(c.logBytes() / c.numCores);
    ssp_assert(per_core > c.numCores * c.nvram.rowBufferBytes,
               "log area too small for %u staggered per-core regions; "
               "raise logPages",
               c.numCores);
    const std::uint64_t capacity =
        per_core - c.numCores * c.nvram.rowBufferBytes;
    for (unsigned core = 0; core < c.numCores; ++core) {
        // Per-core log regions are staggered by one row so they map to
        // different NVRAM banks (a real controller interleaves them).
        const Addr base =
            c.logBase() + core * per_core + core * c.nvram.rowBufferBytes;
        if (core < logs.size())
            logs[core].relocate(base, capacity);
        else
            logs.emplace_back(base, capacity, category, line_padded);
    }
}

void
BaselineBase::begin(CoreId core)
{
    ssp_assert(!tx_[core].inTx, "nested failure-atomic sections");
    tx_[core].inTx = true;
    tx_[core].tid = nextTid_++;
    machine_.clock(core) += machine_.cfg().opCost;
    machine_.conflicts().beginTx(core, machine_.clock(core));
}

bool
BaselineBase::inTx(CoreId core) const
{
    return tx_[core].inTx;
}

Ppn
BaselineBase::translate(CoreId core, Vpn vpn)
{
    Cycles &now = machine_.clock(core);
    Tlb &tlb = machine_.tlb(core);
    if (TlbEntry *hit = tlb.lookup(vpn))
        return hit->ppn0;
    tlb.countMiss();
    now = machine_.pt().walk(now);
    Ppn ppn = machine_.pt().translate(vpn);
    TlbEntry entry;
    entry.valid = true;
    entry.vpn = vpn;
    entry.ppn0 = ppn;
    tlb.insert(entry);
    return ppn;
}

void
BaselineBase::load(CoreId core, Addr vaddr, void *buf, std::uint64_t size)
{
    auto *out = static_cast<std::uint8_t *>(buf);
    Cycles &now = machine_.clock(core);
    while (size > 0) {
        const std::uint64_t in_line =
            std::min<std::uint64_t>(size, kLineSize - lineOffset(vaddr));
        const Ppn ppn = translate(core, pageOf(vaddr));
        const Addr loc =
            lineAddr(ppn, lineIndexInPage(vaddr)) + lineOffset(vaddr);
        now = machine_.caches().read(core, loc, now);
        now += machine_.cfg().opCost;
        if (!redirectLoad(core, lineBase(vaddr), lineOffset(vaddr), out,
                          in_line)) {
            machine_.mem().read(loc, out, in_line);
        }
        machine_.conflicts().recordRead(core, vaddr);
        vaddr += in_line;
        out += in_line;
        size -= in_line;
    }
}

void
BaselineBase::storeRaw(Addr vaddr, const void *buf, std::uint64_t size)
{
    // Identity-style setup store: write through the page table mapping.
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (size > 0) {
        const std::uint64_t in_line =
            std::min<std::uint64_t>(size, kLineSize - lineOffset(vaddr));
        const Ppn ppn = machine_.pt().translate(pageOf(vaddr));
        machine_.mem().write(
            lineAddr(ppn, lineIndexInPage(vaddr)) + lineOffset(vaddr), in,
            in_line);
        vaddr += in_line;
        in += in_line;
        size -= in_line;
    }
}

void
BaselineBase::loadRaw(Addr vaddr, void *buf, std::uint64_t size)
{
    auto *out = static_cast<std::uint8_t *>(buf);
    while (size > 0) {
        const std::uint64_t in_line =
            std::min<std::uint64_t>(size, kLineSize - lineOffset(vaddr));
        const Ppn ppn = machine_.pt().translate(pageOf(vaddr));
        if (!redirectLoad(0, lineBase(vaddr), lineOffset(vaddr), out,
                          in_line)) {
            machine_.mem().read(
                lineAddr(ppn, lineIndexInPage(vaddr)) + lineOffset(vaddr),
                out, in_line);
        }
        vaddr += in_line;
        out += in_line;
        size -= in_line;
    }
}

void
BaselineBase::crash()
{
    machine_.powerFail();
    for (auto &t : tx_)
        t.clear();
    onCrash();
}

void
BaselineBase::noteCommit(CoreId core)
{
    charz_.linesPerTx.sample(tx_[core].lines.size());
    charz_.pagesPerTx.sample(tx_[core].pages.size());
    ++committedTxs_;
}

} // namespace ssp
