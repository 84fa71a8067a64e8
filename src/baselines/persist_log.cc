#include "baselines/persist_log.hh"

#include "common/logging.hh"

namespace ssp
{

namespace
{

/** Acknowledgment latency when the tail already sits in the persistent
 *  write queue (ADR domain) and no array write is needed. */
constexpr Cycles kWpqAckCycles = 30;

} // namespace

PersistLog::PersistLog(Addr base_addr, std::uint64_t capacity_bytes,
                       WriteCategory category, bool line_padded)
    : category_(category), linePadded_(line_padded)
{
    relocate(base_addr, capacity_bytes);
}

void
PersistLog::relocate(Addr base_addr, std::uint64_t capacity_bytes)
{
    ssp_assert(records_.empty() && headBytes_ == 0,
               "relocating a log that holds records");
    ssp_assert(lineOffset(base_addr) == 0);
    ssp_assert(capacity_bytes >= 4 * kLineSize);
    baseAddr_ = base_addr;
    capacityBytes_ = capacity_bytes;
}

Cycles
PersistLog::persistUpTo(MemoryBus &bus, std::uint64_t upto, Cycles now,
                        bool partial)
{
    // Array writes happen once per line: the tail line lives in the
    // persistent write queue and combines until full.
    const std::uint64_t last_line = partial
                                        ? (upto + kLineSize - 1) / kLineSize
                                        : upto / kLineSize;
    Cycles done = now;
    bool wrote = false;
    for (std::uint64_t line = countedLines_; line < last_line; ++line) {
        Cycles t =
            bus.issueWrite(baseAddr_ + line * kLineSize, category_, now);
        ++lineWrites_;
        done = std::max(done, t);
        wrote = true;
    }
    countedLines_ = std::max(countedLines_, last_line);
    persistedBytes_ = std::max(persistedBytes_, upto);
    if (!wrote && partial)
        done = std::max(done, now + kWpqAckCycles);
    return done;
}

Cycles
PersistLog::append(MemoryBus &bus, LogRecord rec, Cycles now,
                   bool persist_now)
{
    const std::uint64_t size =
        linePadded_ ? rec.paddedSizeBytes() : rec.sizeBytes();
    if (headBytes_ + size > capacityBytes_) {
        ssp_fatal("persistent log overflow (%llu bytes appended)",
                  static_cast<unsigned long long>(headBytes_));
    }
    records_.push_back(std::move(rec));
    headBytes_ += size;
    recordEnds_.push_back(headBytes_);

    if (persist_now)
        return persistUpTo(bus, headBytes_, now, true);

    // Asynchronous: stream out lines that are now complete; remember
    // their completion so a later flush knows how far along we are.
    const std::uint64_t full = headBytes_ / kLineSize * kLineSize;
    if (full > persistedBytes_)
        backgroundDoneAt_ =
            std::max(backgroundDoneAt_, persistUpTo(bus, full, now, false));
    return now;
}

Cycles
PersistLog::flush(MemoryBus &bus, Cycles now)
{
    Cycles done = std::max(now, backgroundDoneAt_);
    if (persistedBytes_ < headBytes_)
        done = std::max(done, persistUpTo(bus, headBytes_, now, true));
    return done;
}

std::vector<LogRecord>
PersistLog::persistedRecords() const
{
    std::vector<LogRecord> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        if (recordEnds_[i] <= persistedBytes_)
            out.push_back(records_[i]);
    }
    return out;
}

LogRecord &
PersistLog::mutableRecord(std::size_t idx)
{
    ssp_assert(idx < records_.size());
    ssp_assert(!isPersisted(idx),
               "updating a log record that already reached NVRAM");
    return records_[idx];
}

void
PersistLog::truncate()
{
    records_.clear();
    recordEnds_.clear();
    headBytes_ = 0;
    persistedBytes_ = 0;
    countedLines_ = 0;
    backgroundDoneAt_ = 0;
}

void
PersistLog::powerFail()
{
    while (!records_.empty() && recordEnds_.back() > persistedBytes_) {
        records_.pop_back();
        recordEnds_.pop_back();
    }
    headBytes_ = records_.empty() ? 0 : recordEnds_.back();
    backgroundDoneAt_ = 0;
}

} // namespace ssp
