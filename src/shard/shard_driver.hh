/**
 * @file
 * The cluster driver: runs every shard's workload through the same
 * round-robin slot loop as a single-machine run (runRoundRobin in
 * sim/driver.hh), with a deterministic routing stream deciding, per
 * coordinator slot, whether the operation stays single-shard or becomes
 * a cross-shard 2PC transaction against a drawn peer shard.
 *
 * A 1-machine cluster without faults never routes, so its results are
 * cycle-identical to runExperiment's by construction: same loop, same
 * barriers, same clocks.
 */

#ifndef SSP_SHARD_SHARD_DRIVER_HH
#define SSP_SHARD_SHARD_DRIVER_HH

#include <cstdint>
#include <vector>

#include "shard/cluster.hh"
#include "shard/tx_coordinator.hh"
#include "sim/driver.hh"

namespace ssp::shard
{

/** Metrics of one cluster run. */
struct ShardRunResult
{
    /** Cluster-wide rollup of the shards (see sumRuns). */
    RunResult aggregate;
    /** Per-shard deltas, index = shard. */
    std::vector<RunResult> shards;
    /** 2PC accounting; a 1-machine cluster counts only single-shard
     *  transactions. */
    ShardTxStats tx;
    /** Cross-machine messages priced by the NetworkModel. */
    std::uint64_t networkMessages = 0;
    /** Cycles those messages charged to core clocks. */
    Cycles networkCycles = 0;
};

/**
 * Fault-harness surface of the cluster driver: the coordinator's logged
 * 2PC hooks plus two deterministic injection points of the slot loop.
 * One implementation (fault::FaultInjector) owns the cell's FaultPlan.
 */
class ClusterFaultDriver : public TxFaultHooks
{
  public:
    /** Called at the top of every coordinator slot, before any
     *  operation of the slot runs (where scheduled power-fails fire and
     *  window faults arm). */
    virtual void atSlotStart() = 0;

    /** Called once the run's metrics are cut (verification + delta
     *  accounting). */
    virtual void atRunEnd() = 0;
};

/**
 * Run @p txs_per_shard coordinator operations per shard across
 * @p num_cores cores per machine.  Each slot becomes a cross-shard
 * transaction with probability @p cross_shard_fraction (peer drawn
 * uniformly from the other shards); the routing stream is seeded by
 * @p route_seed, independent of every workload stream.  With one
 * machine and no faults the run equals runExperiment on shard 0.
 *
 * @p faults, when non-null, arms the fault harness: scheduled machine
 * failures fire at slot boundaries, 2PC runs in the logged mode, and
 * commits are log-shipped when replication is on.
 */
ShardRunResult runClusterExperiment(Cluster &cluster,
                                    std::uint64_t txs_per_shard,
                                    unsigned num_cores,
                                    double cross_shard_fraction,
                                    std::uint64_t route_seed,
                                    ClusterFaultDriver *faults = nullptr);

} // namespace ssp::shard

#endif // SSP_SHARD_SHARD_DRIVER_HH
