/**
 * @file
 * A cluster of independent Machine instances with a hash-partitioned
 * keyspace — the multi-machine scale axis on top of the single-machine
 * simulator.
 *
 * Each shard is a complete Experiment (machine + backend + allocator +
 * workload) with its own deterministic workload stream: shard 0 keeps
 * the cell's seed unchanged, so a 1-machine cluster replays the
 * single-machine cell bit for bit, and every further shard derives its
 * seed from the cell seed and its shard index.  Shards share nothing
 * but the NetworkModel; cross-shard atomicity is layered on by the
 * TxCoordinator (tx_coordinator.hh).
 */

#ifndef SSP_SHARD_CLUSTER_HH
#define SSP_SHARD_CLUSTER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "shard/network.hh"
#include "sim/system_builder.hh"

namespace ssp::shard
{

/** M independent machines with hash-partitioned key ownership. */
class Cluster
{
  public:
    /**
     * Build @p machines shards, each a full Experiment of
     * (@p backend_kind, @p workload_kind) on its own copy of @p cfg.
     * @p scale seeds shard 0 verbatim; shard m > 0 runs with
     * shardSeed(scale.seed, m) so no two shards replay the same stream.
     */
    Cluster(BackendKind backend_kind, WorkloadKind workload_kind,
            const SspConfig &cfg, const WorkloadScale &scale,
            unsigned machines, const NetworkParams &net = {});

    unsigned machines() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    Experiment &shard(unsigned m) { return shards_[m]; }
    std::span<Experiment> shards() { return shards_; }
    const Experiment &shard(unsigned m) const { return shards_[m]; }

    Machine &machine(unsigned m) { return shards_[m].backend->machine(); }

    NetworkModel &network() { return net_; }
    const NetworkModel &network() const { return net_; }

    /** Home machine of @p key under the hash partition. */
    unsigned shardOf(std::uint64_t key) const;

    /**
     * Power-fail shard @p m: its machine loses all volatile state and
     * its backend runs recovery, while every peer shard keeps serving
     * untouched.  Committed (and 2PC-prepared, which on a participant
     * is durably persisted) state survives; anything in flight on the
     * failed shard is lost.
     */
    void powerFail(unsigned m);

    /**
     * Deterministic per-shard seed: shard 0 keeps @p base_seed (the
     * 1-machine identity), shard m derives a splitmix64-mixed stream
     * disjoint from the sweep machinery's cell/arrival/route ordinals.
     */
    static std::uint64_t shardSeed(std::uint64_t base_seed,
                                   unsigned machine);

  private:
    std::vector<Experiment> shards_;
    NetworkModel net_;
};

} // namespace ssp::shard

#endif // SSP_SHARD_CLUSTER_HH
