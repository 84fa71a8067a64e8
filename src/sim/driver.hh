/**
 * @file
 * Runs a workload against a backend for N transactions across C
 * simulated cores (locking at the data-structure level serializes
 * conflicting work, as the paper assumes), and collects the metrics the
 * figures plot.
 *
 * Every closed-loop run, on one machine or a cluster of M, goes through
 * one round-robin slot loop: slot i runs on core i % C of every
 * machine, and each machine's core clocks re-align on a barrier after
 * every round.  The open-loop request server (src/serve/) has its own
 * event-driven dispatch on top of the same counters.
 */

#ifndef SSP_SIM_DRIVER_HH
#define SSP_SIM_DRIVER_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/system_builder.hh"

namespace ssp
{

/**
 * Metrics for one measured run (deltas over the post-setup baseline),
 * or a snapshot of absolute counter values (readCounters).
 */
struct RunResult
{
    /** Owned strings: results outlive the backend/workload objects the
     *  names came from (e.g. sweep cells whose experiment is torn down
     *  before the report is emitted). */
    std::string backend;
    std::string workload;
    std::uint64_t committedTxs = 0;
    Cycles cycles = 0;

    std::uint64_t nvramWrites = 0;   ///< all categories
    std::uint64_t loggingWrites = 0; ///< log/journal/checkpoint only
    std::uint64_t dataWrites = 0;
    std::uint64_t consolidationWrites = 0;
    std::uint64_t checkpointWrites = 0;
    std::uint64_t journalWrites = 0;

    double avgLinesPerTx = 0;
    double avgPagesPerTx = 0;
    std::uint64_t maxPagesPerTx = 0;

    /** Per-core cycles spent executing operations (index = core). */
    std::vector<std::uint64_t> coreBusyCycles;
    /** Per-core operation counts (index = core). */
    std::vector<std::uint64_t> coreTxs;

    /** Coherence traffic during the run (deltas over setup). */
    std::uint64_t coherenceFlips = 0;         ///< flip-current-bit sends
    std::uint64_t coherenceInvalidations = 0; ///< MESI write invalidations
    std::uint64_t coherenceShootdowns = 0;    ///< flip-broadcast drops
    std::uint64_t coherenceMessages = 0;      ///< interconnect messages

    /** @{ Directory-interconnect traffic (src/interconnect/); zero
     *  under the broadcast model, which has no mesh, no directory and
     *  no snoop filter. */
    std::uint64_t directoryLookups = 0;
    std::uint64_t hopTraversalCycles = 0;   ///< hop-weighted link cycles
    std::uint64_t snoopFilterEvictions = 0; ///< capacity-forced evictions
    std::uint64_t backInvalidations = 0;    ///< sharer copies dropped
    /** @} */

    /** Conflict handling during the run (deltas over setup); always
     *  zero on a single core, where no transaction windows overlap. */
    std::uint64_t txAborts = 0;  ///< commit validations that failed
    std::uint64_t txRetries = 0; ///< re-executions after an abort
    std::uint64_t conflictsWriteWrite = 0;
    std::uint64_t conflictsReadWrite = 0;
    std::uint64_t backoffCycles = 0; ///< total backoff stall charged

    /** @{ Open-loop request-serving metrics (src/serve/); zero on
     *  closed-loop runs, where no request ever waits in a queue.
     *  Latency is counted from arrival cycle to commit-ack cycle and
     *  the percentiles are exact-rank over the merged per-core
     *  histograms. */
    std::uint64_t p50Cycles = 0;
    std::uint64_t p99Cycles = 0;
    std::uint64_t p999Cycles = 0;
    double meanQueueDepth = 0;       ///< time-averaged waiting requests
    std::uint64_t rejectedTxs = 0;   ///< shed by admission control
    double offeredLoad = 0;          ///< factor of closed-loop capacity
    /** @} */

    /** Transactions per second at the simulated core frequency. */
    double tps() const;

    /** NVRAM writes per committed transaction. */
    double writesPerTx() const;

    /**
     * Load imbalance: max over cores of busy cycles divided by the mean
     * (1.0 = perfectly balanced); 0 when no busy time was recorded.
     */
    double imbalance() const;
};

/**
 * The current absolute value of every counter a run's metrics are
 * built from, read once from @p exp's machine and backend.  A run's
 * metrics are the counterDelta of two such snapshots.
 */
RunResult readCounters(Experiment &exp);

/**
 * The metrics of the run between snapshots @p base and @p now: every
 * additive counter is @p now minus @p base, cycles is the wall-clock
 * advance, and the write-set statistics are @p now's (they
 * characterize every transaction the backend has run).
 */
RunResult counterDelta(const RunResult &now, const RunResult &base);

/**
 * Cluster-wide rollup of per-shard runs: counters are sums across
 * shards, cycles is the slowest shard's wall clock, per-core vectors
 * sum the same core index across machines, and the write-set averages
 * are per-shard means (max of maxima).
 */
RunResult sumRuns(const std::vector<RunResult> &shards);

/**
 * The per-slot body of the round-robin loop: runs machine @p machine's
 * operation of the slot on @p core and returns the other machine it
 * also ran on (the peer of a cross-shard transaction), or @p machine
 * when it ran there alone.
 */
using SlotOp = std::function<unsigned(unsigned machine, CoreId core)>;

/**
 * The round-robin slot loop every closed-loop run goes through.  Slot i
 * runs @p op for core i % @p num_cores on every machine of @p machines
 * in turn, after @p at_slot_start (when set).  Each machine's core
 * clocks re-align after every round-robin cycle and once more at the
 * end, so a final partial round ends on the same barrier every full
 * round ends on.  Returns each machine's metrics, deltas over the
 * start barrier.
 */
std::vector<RunResult>
runRoundRobin(std::span<Experiment> machines, std::uint64_t slots,
              unsigned num_cores, const SlotOp &op,
              const std::function<void()> &at_slot_start = {});

/**
 * Run @p num_txs operations on @p exp, round-robin across @p num_cores
 * cores.  Core clocks are synchronized at the start; wall time is max
 * core time.
 */
RunResult runExperiment(Experiment &exp, std::uint64_t num_txs,
                        unsigned num_cores);

} // namespace ssp

#endif // SSP_SIM_DRIVER_HH
