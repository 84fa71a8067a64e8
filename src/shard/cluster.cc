#include "shard/cluster.hh"

#include "common/logging.hh"

namespace ssp::shard
{

namespace
{

/** splitmix64 finalizer (same mixer the sweep seed derivation uses). */
std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Ordinal base separating shard workload streams from the sweep
 * machinery's other derived streams (cell ordinals are small, the
 * arrival stream uses 101 and the routing stream 211).
 */
constexpr std::uint64_t kShardSeedOrdinalBase = 7000;

} // namespace

std::uint64_t
Cluster::shardSeed(std::uint64_t base_seed, unsigned machine)
{
    if (machine == 0)
        return base_seed;
    return mix64(base_seed + 0x9e3779b97f4a7c15ull *
                                 (kShardSeedOrdinalBase + machine));
}

WorkloadScale
Cluster::shardScale(const WorkloadScale &scale, unsigned machine)
{
    WorkloadScale shard_scale = scale;
    shard_scale.seed = shardSeed(scale.seed, machine);
    return shard_scale;
}

Cluster::Cluster(BackendKind backend_kind, WorkloadKind workload_kind,
                 const SspConfig &cfg, const WorkloadScale &scale,
                 unsigned machines, const NetworkParams &net)
    : net_(net)
{
    ssp_assert(machines >= 1, "a cluster needs at least one machine");
    shards_.reserve(machines);
    for (unsigned m = 0; m < machines; ++m) {
        shards_.push_back(buildExperiment(backend_kind, workload_kind, cfg,
                                          shardScale(scale, m)));
    }
}

Cluster::Cluster(std::vector<Experiment> shards, const NetworkParams &net)
    : shards_(std::move(shards)), net_(net)
{
    ssp_assert(!shards_.empty(), "a cluster needs at least one machine");
}

Cluster
Cluster::clone() const
{
    std::vector<Experiment> shards;
    shards.reserve(shards_.size());
    for (const Experiment &e : shards_)
        shards.push_back(e.clone());
    Cluster copy(std::move(shards), net_.params());
    copy.net_ = net_;
    return copy;
}

unsigned
Cluster::shardOf(std::uint64_t key) const
{
    return static_cast<unsigned>(mix64(key) % shards_.size());
}

void
Cluster::powerFail(unsigned m)
{
    ssp_assert(m < shards_.size(), "powerFail on a machine outside the "
                                   "cluster");
    shards_[m].backend->crash();
    shards_[m].backend->recover();
}

} // namespace ssp::shard
