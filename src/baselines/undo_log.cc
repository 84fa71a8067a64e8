#include "baselines/undo_log.hh"

#include <unordered_set>

#include "common/logging.hh"

namespace ssp
{

UndoLogBackend::UndoLogBackend(const SspConfig &cfg) : BaselineBase(cfg)
{
    addCores();
}

void
UndoLogBackend::addCores()
{
    // Synchronous undo logging: every entry persists by itself before
    // the data store may proceed, so entries are line-padded (no
    // packing across entries).
    carvePerCoreLogs(logs_, WriteCategory::UndoLog, true);
}

void
UndoLogBackend::store(CoreId core, Addr vaddr, const void *buf,
                      std::uint64_t size)
{
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (size > 0) {
        const std::uint64_t in_line =
            std::min<std::uint64_t>(size, kLineSize - lineOffset(vaddr));
        storeLine(core, vaddr, in, in_line);
        vaddr += in_line;
        in += in_line;
        size -= in_line;
    }
}

void
UndoLogBackend::storeLine(CoreId core, Addr vaddr, const void *buf,
                          std::uint64_t size)
{
    ssp_assert(tx_[core].inTx, "atomic store outside a transaction");
    ssp_assert(fitsInLine(vaddr, size));
    Cycles &now = machine_.clock(core);
    BaselineTxState &tx = tx_[core];

    const Ppn ppn = translate(core, pageOf(vaddr));
    const Addr line_paddr = lineAddr(ppn, lineIndexInPage(vaddr));
    const Addr line_vaddr = lineBase(vaddr);
    machine_.conflicts().recordWrite(core, vaddr);

    if (!tx.lines.contains(line_vaddr)) {
        // First update of the line in this transaction: log the old
        // value and stall until the record is durable (log-before-data).
        LogRecord rec;
        rec.kind = LogRecord::Kind::Data;
        rec.tid = tx.tid;
        rec.addr = line_paddr;
        rec.data.resize(kLineSize);
        now = machine_.caches().read(core, line_paddr, now);
        machine_.mem().read(line_paddr, rec.data.data(), kLineSize);
        now = logs_[core].append(machine_.bus(), std::move(rec), now, true);
        tx.lines.insert(line_vaddr);
        tx.pages.insert(pageOf(vaddr));
    }

    machine_.mem().write(line_paddr + lineOffset(vaddr), buf, size);
    now = machine_.caches().write(core, line_paddr, now);
    now += machine_.cfg().opCost;
}

void
UndoLogBackend::commit(CoreId core)
{
    ssp_assert(tx_[core].inTx, "commit outside a transaction");
    Cycles &now = machine_.clock(core);
    BaselineTxState &tx = tx_[core];

    // Data persistence: flush every write-set line; the undo records
    // make any ordering among them safe, but commit cannot be
    // acknowledged until all of them are durable.
    Cycles flushed = now;
    for (Addr line_vaddr : tx.lines) {
        const Ppn ppn = machine_.pt().translate(pageOf(line_vaddr));
        const Addr loc = lineAddr(ppn, lineIndexInPage(line_vaddr));
        Cycles t = machine_.caches().flushLine(core, loc,
                                               WriteCategory::Data, now);
        flushed = std::max(flushed, t);
    }

    // Commit marker, then the log space is reusable.
    LogRecord marker;
    marker.kind = LogRecord::Kind::Commit;
    marker.tid = tx.tid;
    now = logs_[core].append(machine_.bus(), std::move(marker), flushed, true);
    logs_[core].truncate();

    machine_.conflicts().commitTx(core, now, machine_.minClock());
    noteCommit(core);
    tx.clear();
}

void
UndoLogBackend::abort(CoreId core)
{
    ssp_assert(tx_[core].inTx, "abort outside a transaction");
    // Roll back in place from the (fully persisted) undo records.
    rollback(logs_[core]);
    for (Addr line_vaddr : tx_[core].lines) {
        const Ppn ppn = machine_.pt().translate(pageOf(line_vaddr));
        machine_.caches().invalidateLine(
            lineAddr(ppn, lineIndexInPage(line_vaddr)));
    }
    logs_[core].truncate();
    machine_.conflicts().abortTx(core);
    tx_[core].clear();
}

void
UndoLogBackend::rollback(PersistLog &log)
{
    auto records = log.persistedRecords();
    // Newest-first restore of old values.
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
        if (it->kind != LogRecord::Kind::Data)
            continue;
        machine_.mem().write(it->addr, it->data.data(), kLineSize);
    }
}

void
UndoLogBackend::recover()
{
    // Any log content at recovery belongs to an unfinished transaction
    // (committed transactions truncate their log): roll it back.
    for (auto &log : logs_) {
        auto records = log.persistedRecords();
        bool committed = false;
        for (const auto &rec : records) {
            if (rec.kind == LogRecord::Kind::Commit)
                committed = true;
        }
        if (!committed)
            rollback(log);
        log.truncate();
    }
}

std::uint64_t
UndoLogBackend::loggingWrites() const
{
    return machine_.bus().nvramWrites(WriteCategory::UndoLog);
}

std::unique_ptr<AtomicityBackend>
UndoLogBackend::clone() const
{
    return std::make_unique<UndoLogBackend>(*this);
}

} // namespace ssp
