/**
 * @file
 * The metadata journal (paper section 3.3 / 4.1.2).
 *
 * A multi-page transaction updates several per-page committed bitmaps;
 * those updates must become durable atomically.  SSP journals each
 * intended SSP-cache update as a small record — a redo log *for metadata
 * only*.  A record carries the transaction ID (TID), the SSP-cache slot
 * being modified (SID), the new physical page numbers, and the new
 * committed bitmap; the paper quotes ~128 bits of journaled metadata per
 * modified page versus a full 64-byte line per modified *cache line* for
 * data journaling.
 *
 * Records accumulate in a small controller-side log buffer and are
 * written back to NVRAM at cache-line granularity when the buffer fills
 * or a commit forces a flush.  A transaction is durable exactly when its
 * commit marker is contained in a fully-persisted line.  Checkpointing
 * (section 4.1.2) applies persisted records to the persistent SSP cache
 * and truncates the journal.
 *
 * Crash model: everything up to persistedBytes() survives a power
 * failure; the rest of the buffer is lost.
 */

#ifndef SSP_NVRAM_JOURNAL_HH
#define SSP_NVRAM_JOURNAL_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/bitmap64.hh"
#include "common/types.hh"
#include "mem/memory_bus.hh"

namespace ssp
{

/** What a journal record describes. */
enum class JournalKind : std::uint8_t
{
    /** A transaction's intended update to one SSP cache slot. */
    Update,
    /** Transaction commit marker; makes the TID's updates durable. */
    Commit,
    /** A page-consolidation mapping change (self-committing). */
    Consolidate,
    /** A slot eviction: the page's SSP metadata left the cache and its
     *  shadow page returned to the pool (self-committing).  Without
     *  this record, recovery could resurrect a stale slot whose shadow
     *  page has since been handed to another page. */
    Free,
};

/** One metadata-journal record. */
struct JournalRecord
{
    JournalKind kind = JournalKind::Update;
    TxId tid = 0;
    SlotId sid = kInvalidSlot;
    Vpn vpn = 0;
    Ppn ppn0 = kInvalidPpn;
    Ppn ppn1 = kInvalidPpn;
    Bitmap64 committed;

    /** Serialized size in bytes (per-kind; commit markers are 8 bytes). */
    std::uint64_t sizeBytes() const;
};

/**
 * The journal: an append-only record stream with a persistence watermark.
 *
 * Functionally the records are kept structured (the simulator never needs
 * the raw encoding), but sizes and line-granular write-back behave
 * byte-accurately so the NVRAM write counts in Figure 6/7 are faithful.
 */
class MetadataJournal
{
  public:
    /**
     * @param bus Memory bus used to issue journal write-backs.
     * @param base_addr NVRAM byte address of the journal area.
     * @param capacity_bytes Size of the journal area.
     * @param checkpoint_threshold Persisted bytes that trigger a
     *        checkpoint request (bounds recovery time).
     */
    MetadataJournal(MemoryBus &bus, Addr base_addr,
                    std::uint64_t capacity_bytes,
                    std::uint64_t checkpoint_threshold);

    /** Copy of @p other's records and cursors, writing through @p bus. */
    MetadataJournal(const MetadataJournal &other, MemoryBus &bus)
        : MetadataJournal(other)
    {
        bus_ = &bus;
    }

    MetadataJournal &operator=(const MetadataJournal &) = delete;

    /** Append a record to the log buffer (volatile until flushed).
     *  Full log-buffer lines are streamed to NVRAM as they fill. */
    void append(const JournalRecord &rec, Cycles now);

    /**
     * Persist the buffer up to and including the last appended record.
     * @return Completion time of the last line write (commit stall).
     */
    Cycles flush(Cycles now);

    /** True when a checkpoint should run (journal grew past threshold). */
    bool needsCheckpoint() const;

    /**
     * Records that survive a crash right now: every record fully
     * contained in a persisted line, in append order.
     */
    std::vector<JournalRecord> persistedRecords() const;

    /** All records including unpersisted ones (for checkpointing). */
    const std::deque<JournalRecord> &allRecords() const { return records_; }

    /**
     * Truncate after a checkpoint: drop every record and reset the head
     * to the start of the journal area (the checkpoint already captured
     * their effects).
     */
    void truncate();

    /** Simulated power failure: unpersisted tail is lost. */
    void powerFail();

    std::uint64_t appendedBytes() const { return headBytes_; }
    std::uint64_t persistedBytes() const { return persistedBytes_; }
    std::uint64_t flushes() const { return flushes_; }
    std::uint64_t lineWrites() const { return lineWrites_; }

  private:
    MetadataJournal(const MetadataJournal &) = default;

    /** Persist whole lines up to byte offset @p upto. */
    Cycles persistUpTo(std::uint64_t upto, Cycles now, bool force_partial);

    MemoryBus *bus_;
    Addr baseAddr_;
    std::uint64_t capacityBytes_;
    std::uint64_t checkpointThreshold_;

    std::deque<JournalRecord> records_;
    std::vector<std::uint64_t> recordEnds_; // byte offset after record i
    std::uint64_t headBytes_ = 0;           // append cursor
    std::uint64_t persistedBytes_ = 0;      // durable watermark
    /** Next line index not yet written to the NVRAM array: the tail
     *  line write-combines in the controller's persistent write queue
     *  (ADR domain), so each journal line hits the array exactly once. */
    std::uint64_t countedLines_ = 0;
    /** Completion time of background-streamed journal lines. */
    Cycles streamDoneAt_ = 0;
    std::uint64_t flushes_ = 0;
    std::uint64_t lineWrites_ = 0;
};

} // namespace ssp

#endif // SSP_NVRAM_JOURNAL_HH
