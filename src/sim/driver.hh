/**
 * @file
 * Runs a workload against a backend for N transactions across C
 * simulated cores (locking at the data-structure level serializes
 * conflicting work, as the paper assumes), and collects the metrics the
 * figures plot.
 *
 * Two core schedulers are provided.  ScheduleMode::Rounds is the
 * original bulk-synchronous model: cores take transactions round-robin
 * and re-align their clocks on a barrier after every round, so the five
 * checked-in closed-loop grids stay byte-identical.
 * ScheduleMode::EventDriven dispatches whichever core's clock is lowest
 * (a min-heap of (next-free-cycle, core), ties broken by core id) with
 * no barriers — the scheduler the open-loop request server (src/serve/)
 * is built on.
 */

#ifndef SSP_SIM_DRIVER_HH
#define SSP_SIM_DRIVER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/conflict_manager.hh"
#include "sim/system_builder.hh"

namespace ssp
{

/** Metrics for one measured run (deltas over the post-setup baseline). */
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

    /** @{ Fault-epoch tail latency (src/serve/ under injected faults):
     *  completions inside a window around each injected crash are
     *  binned separately, conditioning the tail on the fault.  All zero
     *  when no fault fired. */
    std::uint64_t faultEpochs = 0;    ///< injected crash windows
    std::uint64_t faultEpochTxs = 0;  ///< completions inside them
    std::uint64_t p99FaultEpochCycles = 0;
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

/** How the driver interleaves the simulated cores. */
enum class ScheduleMode
{
    /** Round-robin with a clock barrier per round (the original
     *  bulk-synchronous model; checked-in grids depend on it). */
    Rounds,
    /** Dispatch the core with the lowest clock next; no barriers. */
    EventDriven,
};

/**
 * Snapshot of every counter a run's metrics are deltas over, taken at
 * measurement start.  Shared by the closed-loop driver here and the
 * open-loop request server (src/serve/), so both fill RunResult through
 * the same arithmetic.
 */
struct RunBaseline
{
    Cycles clock = 0;
    std::uint64_t commits = 0;
    std::uint64_t nvramWrites = 0;
    std::uint64_t loggingWrites = 0;
    std::uint64_t dataWrites = 0;
    std::uint64_t consolidationWrites = 0;
    std::uint64_t checkpointWrites = 0;
    std::uint64_t coherenceFlips = 0;
    std::uint64_t coherenceInvalidations = 0;
    std::uint64_t coherenceShootdowns = 0;
    std::uint64_t coherenceMessages = 0;
    std::uint64_t directoryLookups = 0;
    std::uint64_t hopTraversalCycles = 0;
    std::uint64_t snoopFilterEvictions = 0;
    std::uint64_t backInvalidations = 0;
    ConflictStats conflicts{};
};

/** Snapshot the current counter values of @p exp's machine/backend. */
RunBaseline captureRunBaseline(Experiment &exp);

/** Fill @p res's delta metrics from the current counters vs @p base. */
void finishRunMetrics(RunResult &res, Experiment &exp,
                      const RunBaseline &base);

/**
 * Driver instrumentation points.  beforeOp, when set, runs immediately
 * before each dispatched operation with the operation's slot index —
 * the hook the fault harness uses to fire scheduled crashes at
 * deterministic positions in the dispatch order (never mid-operation,
 * so the injection is independent of host threading).
 */
struct RunHooks
{
    std::function<void(std::uint64_t op_index)> beforeOp;
};

/**
 * Run @p num_txs operations on @p exp, interleaving @p num_cores cores
 * under @p mode.  Core clocks are synchronized at the start; wall time
 * is max core time.
 */
RunResult runExperiment(Experiment &exp, std::uint64_t num_txs,
                        unsigned num_cores,
                        ScheduleMode mode = ScheduleMode::Rounds,
                        const RunHooks &hooks = {});

} // namespace ssp

#endif // SSP_SIM_DRIVER_HH
