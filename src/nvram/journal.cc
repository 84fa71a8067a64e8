#include "nvram/journal.hh"

#include "common/logging.hh"

namespace ssp
{

std::uint64_t
JournalRecord::sizeBytes() const
{
    switch (kind) {
      case JournalKind::Commit:
        // TID + kind tag, padded to 8 bytes.
        return 8;
      case JournalKind::Update:
      case JournalKind::Consolidate:
      case JournalKind::Free:
        // kind+SID (8) + TID (8) + VPN/PPN0/PPN1 packed (16) +
        // committed bitmap (8) = 40 bytes.
        return 40;
    }
    return 40;
}

MetadataJournal::MetadataJournal(Addr base_addr, std::uint64_t capacity_bytes,
                                 std::uint64_t checkpoint_threshold)
    : baseAddr_(base_addr), capacityBytes_(capacity_bytes),
      checkpointThreshold_(checkpoint_threshold)
{
    ssp_assert(capacity_bytes >= 4 * kLineSize);
    ssp_assert(checkpoint_threshold <= capacity_bytes,
               "checkpoint threshold beyond journal capacity");
    ssp_assert(lineOffset(base_addr) == 0);
}

void
MetadataJournal::append(MemoryBus &bus, const JournalRecord &rec,
                        Cycles now)
{
    if (headBytes_ + rec.sizeBytes() > capacityBytes_) {
        // The checkpointing thread normally keeps us far from the end;
        // running out means the threshold is mis-configured.
        ssp_fatal("metadata journal overflow (%llu bytes); lower the "
                  "checkpoint threshold",
                  static_cast<unsigned long long>(headBytes_));
    }
    records_.push_back(rec);
    headBytes_ += rec.sizeBytes();
    recordEnds_.push_back(headBytes_);

    // Stream out lines that are now full; nobody stalls on these.
    const std::uint64_t full_lines = headBytes_ / kLineSize * kLineSize;
    if (full_lines > persistedBytes_)
        persistUpTo(bus, full_lines, now, false);
}

Cycles
MetadataJournal::persistUpTo(MemoryBus &bus, std::uint64_t upto, Cycles now,
                             bool force_partial)
{
    // Array writes happen once per journal line: the tail line combines
    // in the controller's write buffer until it fills.  Lines completed
    // during appends stream out in the background; only a forced flush
    // (a commit's durability point) is a foreground write the core
    // stalls on — and it must also cover any still-streaming lines.
    const std::uint64_t last_line =
        force_partial ? (upto + kLineSize - 1) / kLineSize
                      : upto / kLineSize;
    Cycles done = now;
    bool wrote = false;
    for (std::uint64_t line = countedLines_; line < last_line; ++line) {
        Cycles t = bus.issueWrite(baseAddr_ + line * kLineSize,
                                  WriteCategory::MetaJournal, now,
                                  !force_partial);
        ++lineWrites_;
        done = std::max(done, t);
        wrote = true;
    }
    countedLines_ = std::max(countedLines_, last_line);
    persistedBytes_ =
        std::max(persistedBytes_, force_partial
                                      ? upto
                                      : (upto / kLineSize) * kLineSize);
    if (force_partial) {
        // A durability flush waits for in-flight streamed lines too.
        done = std::max(done, streamDoneAt_);
        if (!wrote)
            done = std::max(done, now + 30);
    } else {
        streamDoneAt_ = std::max(streamDoneAt_, done);
        done = now; // streaming: nobody stalls now
    }
    return done;
}

Cycles
MetadataJournal::flush(MemoryBus &bus, Cycles now)
{
    ++flushes_;
    if (persistedBytes_ >= headBytes_)
        return now;
    return persistUpTo(bus, headBytes_, now, true);
}

bool
MetadataJournal::needsCheckpoint() const
{
    return headBytes_ >= checkpointThreshold_;
}

std::vector<JournalRecord>
MetadataJournal::persistedRecords() const
{
    std::vector<JournalRecord> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        if (recordEnds_[i] <= persistedBytes_)
            out.push_back(records_[i]);
    }
    return out;
}

void
MetadataJournal::truncate()
{
    records_.clear();
    recordEnds_.clear();
    headBytes_ = 0;
    persistedBytes_ = 0;
    countedLines_ = 0;
    streamDoneAt_ = 0;
}

void
MetadataJournal::powerFail()
{
    // Drop records that never became durable.
    while (!records_.empty() && recordEnds_.back() > persistedBytes_) {
        records_.pop_back();
        recordEnds_.pop_back();
    }
    headBytes_ = records_.empty() ? 0 : recordEnds_.back();
    // NOTE: persistedBytes_ stays — it is the durable watermark.
}

} // namespace ssp
