#include "shard/shard_driver.hh"

#include <functional>

#include "common/rng.hh"

namespace ssp::shard
{

ShardRunResult
runClusterExperiment(Cluster &cluster, std::uint64_t txs_per_shard,
                     unsigned num_cores, double cross_shard_fraction,
                     std::uint64_t route_seed, ClusterFaultDriver *faults)
{
    const unsigned machines = cluster.machines();
    TxCoordinator coord(cluster);
    coord.setFaultHooks(faults);
    Rng route(route_seed);
    auto op = [&](unsigned m, CoreId core) {
        const bool cross = machines > 1 && cross_shard_fraction > 0 &&
                           route.nextBool(cross_shard_fraction);
        if (!cross) {
            coord.runSingleShard(m, core);
            // Replication ships every commit synchronously; the
            // committing core waits for the backup's ack.
            if (faults != nullptr) {
                cluster.machine(m).clock(core) +=
                    faults->shipCommit(m, core);
            }
            return m;
        }
        // The client's next request touches a key owned by one of the
        // other shards, uniform under the hash partition.
        const unsigned peer =
            (m + 1 +
             static_cast<unsigned>(route.nextBounded(machines - 1))) %
            machines;
        coord.runCrossShard(m, peer, core);
        return peer;
    };
    // Scheduled faults fire between slots: a machine whose clock
    // crossed its next fault cycle power-fails here, and window faults
    // (coordinator/participant crash) arm for the slot.
    std::function<void()> at_slot_start;
    if (faults != nullptr)
        at_slot_start = [faults] { faults->atSlotStart(); };

    ShardRunResult res;
    res.shards = runRoundRobin(cluster.shards(), txs_per_shard, num_cores,
                               op, at_slot_start);
    if (faults != nullptr)
        faults->atRunEnd();
    res.aggregate = sumRuns(res.shards);
    res.tx = coord.stats();
    res.networkMessages = cluster.network().messages();
    res.networkCycles = cluster.network().cyclesCharged();
    return res;
}

} // namespace ssp::shard
