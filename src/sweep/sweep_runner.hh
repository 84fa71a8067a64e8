/**
 * @file
 * Multi-threaded sweep execution: runs every cell of a sweep grid on a
 * worker pool and serializes the results as a machine-readable JSON
 * report (the BENCH_*.json perf-trajectory format).
 *
 * Results are written into a slot per cell, so the output order — and
 * therefore the emitted JSON — is byte-identical for any worker count.
 */

#ifndef SSP_SWEEP_SWEEP_RUNNER_HH
#define SSP_SWEEP_SWEEP_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "shard/shard_driver.hh"
#include "sim/driver.hh"
#include "sim/report.hh"
#include "sweep/sweep_grid.hh"

namespace ssp::sweep
{

/** Outcome of one executed cell. */
struct CellResult
{
    SweepCell cell;
    RunResult run{};
    bool ok = false;
    std::string error; ///< exception text when !ok
    /** Per-shard deltas; non-empty only on machines > 1 cells. */
    std::vector<RunResult> shardRuns;
    /** 2PC accounting; all zero unless machines > 1. */
    shard::ShardTxStats shardTx{};
    /** Cross-machine messages priced by the shard NetworkModel. */
    std::uint64_t networkMessages = 0;
    /** Cycles those messages charged to core clocks. */
    Cycles networkCycles = 0;
    /** Fault-harness accounting; all zero unless the cell armed it
     *  (fault rate > 0 or replication on). */
    fault::FaultStats faultStats{};
    /**
     * Host wall-clock time this cell took, in milliseconds: building
     * and setting up its state (or cloning it, see runSweep), running,
     * and tearing the state down.  Always measured (a few steady_clock
     * pairs per cell); only serialized when the report asks for it, so
     * the checked-in BENCH_*.json files stay byte-stable run to run.
     */
    double hostMillis = 0;
    /** @{ hostMillis by phase.  The cell that built its setup group's
     *  state carries the group's build (machine and workload
     *  construction) and setup (Workload::setup plus a serve group's
     *  calibration) time; every other cell of the group carries the
     *  time it took to clone that state instead.  A cell whose group
     *  spans core counts adds its widening to its clone time. */
    double hostMillisBuild = 0;
    double hostMillisSetup = 0;
    double hostMillisClone = 0;
    double hostMillisRun = 0;
    /** @} */
};

/** Invoked after each cell completes: (result, done count, total). */
using CellCallback =
    std::function<void(const CellResult &, std::size_t, std::size_t)>;

/**
 * Execute @p cells on @p jobs worker threads (clamped to >= 1).
 *
 * Cells whose state before the run is built from identical inputs —
 * backend, workload, the whole SspConfig and WorkloadScale, machine
 * count, and for an open-loop cell its calibration's core and request
 * counts — form one setup group, e.g. the load points of one queue
 * cell or the fault rates of one fault cell.  A closed-loop broadcast
 * cell on one machine with at least
 * CacheHierarchy::kSharerIndexMinCores cores groups across core (and
 * so key-shard) counts too: the group sets up at its smallest core
 * count, and each cell runs on the state widened to its own
 * (Experiment::widen).  A worker takes a whole group: it builds and
 * sets up the state once, runs every cell but the last on a clone of
 * it and the last on the original, so each worker holds at most one
 * original and one clone.  A clone, widened or not, runs bit for bit
 * like a fresh build, so results do not depend on the grouping.
 *
 * A throwing cell is captured as !ok instead of taking the sweep down
 * (a failed build fails its whole group).  The callback, when set, is
 * serialized by a mutex.
 */
std::vector<CellResult> runSweep(const std::vector<SweepCell> &cells,
                                 unsigned jobs,
                                 const CellCallback &on_cell = {});

/**
 * Serialize sweep results as the BENCH_*.json report document:
 * schema/figure metadata plus one entry per cell with the cell's
 * coordinates and the measured metrics.
 *
 * With @p include_host_time set, every cell carries its measured
 * "host_ms" and its phases ("host_ms_build", "host_ms_setup",
 * "host_ms_clone", "host_ms_run"; see CellResult), and the document
 * gains a "host_ms_total" — the
 * perf-trajectory data scripts/perf_compare.py consumes.  The default
 * leaves host times out so checked-in reports are byte-identical
 * across runs and machines.
 */
Json sweepReport(const std::string &figure,
                 const std::vector<CellResult> &results,
                 bool include_host_time = false);

/**
 * The text table sweep_main prints for finished results: the figure's
 * paper table (FigureSpec::paperTable) when it has one, every cell ran
 * ok and none it needs was filtered out; otherwise the generic per-cell
 * table.
 */
std::string renderSweepTable(const std::string &figure,
                             const std::vector<CellResult> &results);

} // namespace ssp::sweep

#endif // SSP_SWEEP_SWEEP_RUNNER_HH
