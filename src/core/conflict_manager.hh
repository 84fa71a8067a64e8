/**
 * @file
 * Commit-time conflict detection for overlapping transactions.
 *
 * The driver interleaves cores in bulk-synchronous rounds: every core's
 * transaction of a round begins at the round barrier, so in simulated
 * time the transactions overlap even though the simulator executes them
 * one after another.  The ConflictManager supplies the concurrency
 * semantics for that overlap: each in-flight transaction records its
 * read and write sets at cache-line granularity (virtual line
 * addresses, stable across SSP's CoW flips and the baselines' shadow
 * mappings — the same lines the hierarchy tags with the TX bit), and a
 * transaction validates at commit against every peer commit whose
 * completion time falls inside its own [begin, commit] window.
 *
 * The default policy is first-committer-wins: the earlier commit (in
 * simulated time; simulation order breaks ties) stands, and the
 * validating transaction aborts on any read-write or write-write
 * overlap, rolls back through its backend's abort machinery, and
 * re-executes after an exponential backoff.  The lazy-validation mode
 * only validates the read set — write-write overlaps are resolved by
 * commit order, as in lazy-versioning HTM designs where buffered
 * writes are published atomically at commit.
 *
 * Every retry begins after the abort point, so a given logged commit
 * can conflict with a transaction at most once: the retry count per
 * operation is bounded by the number of overlapping peer commits, and
 * the simulation cannot livelock.  With one core (or detection
 * disabled) every call is a no-op, keeping single-core timing
 * bit-identical to the serialized model.
 */

#ifndef SSP_CORE_CONFLICT_MANAGER_HH
#define SSP_CORE_CONFLICT_MANAGER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "core/line_set.hh"

namespace ssp
{

/** When a transaction checks for conflicts (see file comment). */
enum class ConflictValidation
{
    FirstCommitterWins, ///< validate read + write sets at commit
    Lazy,               ///< validate the read set only
};

/** Conflict-handling knobs (part of SspConfig). */
struct ConflictParams
{
    /** Detect conflicts at all; single-core machines never do. */
    bool enabled = true;
    ConflictValidation validation = ConflictValidation::FirstCommitterWins;
    /** Abort cost: pipeline flush + rollback handler dispatch. */
    Cycles abortPenalty = 40;
    /** First-retry backoff; doubles per consecutive abort. */
    Cycles backoffBase = 64;
    /** Cap on the backoff doublings (base << cap is the ceiling). */
    unsigned backoffCapDoublings = 6;

    bool operator==(const ConflictParams &) const = default;
};

/** Aggregate conflict accounting for one machine. */
struct ConflictStats
{
    std::uint64_t aborts = 0;  ///< commit validations that failed
    std::uint64_t retries = 0; ///< re-executions (== aborts today)
    std::uint64_t writeWriteConflicts = 0;
    std::uint64_t readWriteConflicts = 0;
    Cycles backoffCycles = 0; ///< total backoff charged to core clocks
};

/** Per-machine conflict detector (one per Machine, all backends). */
class ConflictManager
{
  public:
    ConflictManager(unsigned num_cores, const ConflictParams &params);

    /**
     * Grow to @p num_cores cores (at least the current count).  The
     * added cores have no transaction open, as on a fresh machine.
     */
    void widen(unsigned num_cores);

    /** True when conflicts are both requested and possible (> 1 core). */
    bool enabled() const { return enabled_; }

    /**
     * Tracking off for the scope's lifetime: every call is a no-op, as
     * on one core.  The previous state comes back when the scope ends,
     * on return or throw.  Workload::setup holds one around the prefill.
     */
    class Pause
    {
      public:
        explicit Pause(ConflictManager &cm) : cm_(cm), was_(cm.enabled_)
        {
            cm_.enabled_ = false;
        }
        ~Pause() { cm_.enabled_ = was_; }
        Pause(const Pause &) = delete;
        Pause &operator=(const Pause &) = delete;

      private:
        ConflictManager &cm_;
        bool was_;
    };

    /** A transaction opened on @p core at simulated time @p now. */
    void beginTx(CoreId core, Cycles now);

    /** Record a transactional load of the line containing @p vaddr. */
    void recordRead(CoreId core, Addr vaddr);

    /** Record a transactional store to the line containing @p vaddr. */
    void recordWrite(CoreId core, Addr vaddr);

    /**
     * Commit-time validation at simulated time @p now: false when a
     * peer commit inside this transaction's window conflicts under the
     * configured mode — the caller must abort, charge retryPenalty()
     * and re-execute.  On success the transaction's commit point is
     * fixed at @p now — the moment it wins first-committer arbitration
     * and becomes irrevocable — so its published record is stamped
     * here, not at the (possibly much later) durability ack: a design
     * with a long commit flush must not hide its conflicts behind it.
     */
    bool validate(CoreId core, Cycles now);

    /**
     * Publish @p core's write set to the commit log and close the
     * transaction.  The record is stamped at the commit point fixed by
     * the last successful validate(); transactions committed without
     * one (the single-core model, direct backend drivers) are stamped
     * at @p now, the ack time.  @p min_core_clock (the minimum clock
     * over all cores) prunes log entries no future window can reach.
     */
    void commitTx(CoreId core, Cycles now, Cycles min_core_clock);

    /** Drop @p core's in-flight sets (abort path; idempotent). */
    void abortTx(CoreId core);

    /**
     * Account one abort + re-execution and return the cycles to charge
     * the core: abort penalty plus exponential backoff for the
     * @p attempt-th consecutive failure (1-based).
     */
    Cycles retryPenalty(CoreId core, unsigned attempt);

    /** Power failure: in-flight volatile state disappears. */
    void reset();

    const ConflictStats &stats() const { return stats_; }
    const ConflictParams &params() const { return params_; }

    /**
     * @{ 2PC prepare introspection (src/shard/): a transaction whose
     * last validate() succeeded is *prepared* — its commit point is
     * fixed at preparedAt() and commitTx will stamp the published
     * record there.  The shard coordinator reads these to anchor the
     * prepare-vote timestamp; with conflict detection disabled (one
     * core) validate() never fixes a point and prepared() stays false.
     */
    bool prepared(CoreId core) const { return tx_[core].validated; }
    Cycles preparedAt(CoreId core) const { return tx_[core].validatedAt; }
    /** @} */

    /** Introspection (tests): in-flight set sizes and log depth. */
    bool inTx(CoreId core) const { return tx_[core].active; }
    std::size_t readSetSize(CoreId core) const
    {
        return tx_[core].reads.size();
    }
    std::size_t writeSetSize(CoreId core) const
    {
        return tx_[core].writes.size();
    }
    std::size_t logSize() const { return log_.size(); }

  private:
    /** One in-flight transaction's footprint. */
    struct TxState
    {
        bool active = false;
        Cycles beginCycle = 0;
        /** Commit point fixed by the last successful validate(). */
        bool validated = false;
        Cycles validatedAt = 0;
        /** Line-aligned vaddrs; LineSet keeps the hot record/validate
         *  path allocation- and hash-free for Table 3-sized sets. */
        LineSet reads;
        LineSet writes;
    };

    /** One committed transaction's published write set. */
    struct CommitRecord
    {
        CoreId core = 0;
        Cycles commitCycle = 0;
        LineSet writes;
    };

    /**
     * One published write of one line, entered into the per-line
     * posting index at commit.  `seq` is the record's global position
     * in commit-log order: validation must report the *earliest*
     * logged record that conflicts (and classify write-write before
     * read-write within it), exactly as the record-by-record scan it
     * replaces did.
     */
    struct Posting
    {
        Cycles commitCycle = 0;
        std::uint64_t seq = 0;
        CoreId core = 0;
    };

    ConflictParams params_;
    bool enabled_;
    std::vector<TxState> tx_;
    std::deque<CommitRecord> log_;
    /**
     * Inverted index over log_: line address -> postings of every
     * published write of that line, sorted by commit point so a
     * validation window is a binary-searched range.  validate looks up
     * only the validating transaction's own footprint instead of
     * scanning every record's write set — with bulk-synchronous rounds
     * the log holds O(cores x sections-per-op) records, so the scan
     * was the quadratic term that dominated 64-core cells.
     *
     * Postings of pruned records linger until the index resets: they
     * are harmless because any future validation window starts at or
     * above the prune floor, so the window test rejects them — the
     * exact filter the record scan applied.  The index resets whenever
     * the log drains, which the round barrier guarantees once per
     * round.
     */
    std::unordered_map<Addr, std::vector<Posting>> postings_;
    /**
     * 4096-bit Bloom filter over postings_'s keys (one bit per line,
     * set on publish, zeroed when the index resets).  Validation
     * probes the footprint lines here first: a clear bit proves the
     * line has no postings, so the common cold line costs one bit test
     * instead of a hash lookup.  False positives just fall through to
     * the map; the result is exact either way.
     */
    std::array<std::uint64_t, 64> postingBloom_{};
    /** Log-order sequence number of the next published record. */
    std::uint64_t nextSeq_ = 0;
    ConflictStats stats_;

    /** Bloom bit position for @p line (splitmix-style spread). */
    static std::pair<unsigned, std::uint64_t>
    bloomBit(Addr line)
    {
        std::uint64_t h = line * 0x9e3779b97f4a7c15ull;
        h >>= 52; // top 12 bits index 4096 positions
        return {static_cast<unsigned>(h >> 6),
                std::uint64_t{1} << (h & 63)};
    }
};

} // namespace ssp

#endif // SSP_CORE_CONFLICT_MANAGER_HH
