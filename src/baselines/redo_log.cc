#include "baselines/redo_log.hh"

#include <unordered_set>

#include "common/logging.hh"

namespace ssp
{

RedoLogBackend::RedoLogBackend(const SspConfig &cfg) : BaselineBase(cfg)
{
    addCores();
}

void
RedoLogBackend::addCores()
{
    writeBuf_.resize(cfg().numCores);
    phase1Done_.resize(cfg().numCores, false);
    carvePerCoreLogs(logs_, WriteCategory::RedoLog, false);
}

bool
RedoLogBackend::redirectLoad(CoreId core, Addr line_vaddr,
                             std::uint64_t offset, void *buf,
                             std::uint64_t size)
{
    auto it = writeBuf_[core].find(line_vaddr);
    if (it == writeBuf_[core].end())
        return false;
    std::memcpy(buf, it->second.data() + offset, size);
    return true;
}

void
RedoLogBackend::store(CoreId core, Addr vaddr, const void *buf,
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
RedoLogBackend::storeLine(CoreId core, Addr vaddr, const void *buf,
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

    auto it = writeBuf_[core].find(line_vaddr);
    if (it == writeBuf_[core].end()) {
        // First store to this line: seed the speculative image with the
        // committed contents, then apply the store.
        LineImage image;
        now = machine_.caches().read(core, line_paddr, now);
        machine_.mem().read(line_paddr, image.data(), kLineSize);
        it = writeBuf_[core].emplace(line_vaddr, image).first;
        tx.lines.insert(line_vaddr);
        tx.pages.insert(pageOf(vaddr));
    }
    std::memcpy(it->second.data() + lineOffset(vaddr), buf, size);

    // The speculative version lives in the L1 (DHTM); the store is a
    // normal cache write, and the redo record streams out asynchronously
    // without stalling the store.
    now = machine_.caches().write(core, line_paddr, now);
    now += machine_.cfg().opCost;
}

void
RedoLogBackend::commitPhase1(CoreId core)
{
    ssp_assert(tx_[core].inTx, "commit outside a transaction");
    ssp_assert(!phase1Done_[core], "phase 1 already ran");
    Cycles &now = machine_.clock(core);
    BaselineTxState &tx = tx_[core];

    // The log buffer predicted the final state of each modified line:
    // exactly one redo record per distinct line, written at commit time
    // but overlapped with the commit pipeline (async appends, one final
    // flush that the commit does stall on).
    for (Addr line_vaddr : tx.lines) {
        const auto &image = writeBuf_[core].at(line_vaddr);
        const Ppn ppn = machine_.pt().translate(pageOf(line_vaddr));
        LogRecord rec;
        rec.kind = LogRecord::Kind::Data;
        rec.tid = tx.tid;
        rec.addr = lineAddr(ppn, lineIndexInPage(line_vaddr));
        rec.data.assign(image.begin(), image.end());
        logs_[core].append(machine_.bus(), std::move(rec), now, false);
    }
    LogRecord marker;
    marker.kind = LogRecord::Kind::Commit;
    marker.tid = tx.tid;
    logs_[core].append(machine_.bus(), std::move(marker), now, false);
    // Commit is acknowledged when the log (including the marker) is
    // durable — this is the only persistence stall in DHTM's pipeline.
    now = logs_[core].flush(machine_.bus(), now);
    phase1Done_[core] = true;
}

void
RedoLogBackend::commitPhase2(CoreId core)
{
    ssp_assert(phase1Done_[core], "phase 2 before phase 1");
    Cycles &now = machine_.clock(core);
    BaselineTxState &tx = tx_[core];

    // Post-commit in-place write-back: overlaps with subsequent
    // execution (background, no stall), but the writes are real NVRAM
    // traffic — DHTM still pays the "write twice" cost.
    for (Addr line_vaddr : tx.lines) {
        const auto &image = writeBuf_[core].at(line_vaddr);
        const Ppn ppn = machine_.pt().translate(pageOf(line_vaddr));
        const Addr loc = lineAddr(ppn, lineIndexInPage(line_vaddr));
        machine_.mem().write(loc, image.data(), kLineSize);
        machine_.caches().flushLine(core, loc, WriteCategory::Data, now, true);
    }
    logs_[core].truncate();
    writeBuf_[core].clear();
    phase1Done_[core] = false;

    noteCommit(core);
    tx.clear();
}

void
RedoLogBackend::commit(CoreId core)
{
    commitPhase1(core);
    // The ack point: the redo log (with its marker) is durable, so the
    // write set is published for peer conflict windows here.
    machine_.conflicts().commitTx(core, machine_.clock(core),
                                  machine_.minClock());
    commitPhase2(core);
}

void
RedoLogBackend::abort(CoreId core)
{
    ssp_assert(tx_[core].inTx, "abort outside a transaction");
    ssp_assert(!phase1Done_[core], "abort after the commit point");
    for (Addr line_vaddr : tx_[core].lines) {
        const Ppn ppn = machine_.pt().translate(pageOf(line_vaddr));
        machine_.caches().invalidateLine(
            lineAddr(ppn, lineIndexInPage(line_vaddr)));
    }
    writeBuf_[core].clear();
    logs_[core].truncate();
    machine_.conflicts().abortTx(core);
    tx_[core].clear();
}

void
RedoLogBackend::onCrash()
{
    for (auto &buf : writeBuf_)
        buf.clear();
    for (auto &log : logs_)
        log.powerFail();
    std::fill(phase1Done_.begin(), phase1Done_.end(), false);
}

void
RedoLogBackend::recover()
{
    for (auto &log : logs_) {
        auto records = log.persistedRecords();
        std::unordered_set<TxId> committed;
        for (const auto &rec : records) {
            if (rec.kind == LogRecord::Kind::Commit)
                committed.insert(rec.tid);
        }
        // Replay committed transactions' redo records in order (the
        // in-place data write may not have finished before the crash).
        for (const auto &rec : records) {
            if (rec.kind != LogRecord::Kind::Data ||
                !committed.contains(rec.tid)) {
                continue;
            }
            machine_.mem().write(rec.addr, rec.data.data(), rec.data.size());
        }
        log.truncate();
    }
}

std::uint64_t
RedoLogBackend::loggingWrites() const
{
    return machine_.bus().nvramWrites(WriteCategory::RedoLog);
}

std::unique_ptr<AtomicityBackend>
RedoLogBackend::clone() const
{
    return std::make_unique<RedoLogBackend>(*this);
}

} // namespace ssp
