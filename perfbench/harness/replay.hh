/**
 * @file
 * The traced replay of one sweep cell: the same work runSweep does for
 * the cell, but through each layer's public entry points, with a span
 * around every call and the workload's reference-model verify() at the
 * end.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>

#include "harness/trace.hh"
#include "sweep/sweep_runner.hh"

namespace perfbench
{

/** What one replayed cell produced besides its CellResult. */
struct ReplayOutcome
{
    /** ok means "ran without throwing and every shard verified",
     *  both before and after the crash+recover probe. */
    ssp::sweep::CellResult result;
    /** Transactions the workload setup committed (prefill), summed
     *  over the cell's machines. */
    std::uint64_t setupTxs = 0;
};

/**
 * Replay @p cell (index @p index in its grid) on the calling thread,
 * recording its spans into @p log.  Span layers:
 *  - single-machine cells: baselines.build (makeBackend),
 *    workloads.setup (allocator + makeWorkload + Workload::setup),
 *    sim.run (runExperiment) or serve.run (serve::runServeExperiment);
 *  - cluster cells (machines > 1 or fault-armed): shard.build
 *    (shard::Cluster, which builds and sets up every shard), shard.run
 *    (FaultInjector when armed + shard::runClusterExperiment);
 *  - then workloads.verify, baselines.recover (one crash()+recover()
 *    per machine), workloads.verify again, and sim.teardown.
 * All of them nest under one sweep.cell root span.
 */
ReplayOutcome replayCell(const ssp::sweep::SweepCell &cell,
                         std::size_t index, SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
