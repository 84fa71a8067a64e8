/**
 * @file
 * Factory for the paper's nine evaluated workloads (Table 3).
 */

#ifndef SSP_WORKLOADS_WORKLOAD_FACTORY_HH
#define SSP_WORKLOADS_WORKLOAD_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace ssp
{

/** The evaluated workloads, in Table 3 order. */
enum class WorkloadKind
{
    BTreeRand,
    RbTreeRand,
    HashRand,
    Sps,
    BTreeZipf,
    RbTreeZipf,
    HashZipf,
    Memcached,
    Vacation,
};

/** Scale knobs shared across workloads (sized for simulation speed). */
struct WorkloadScale
{
    std::uint64_t keySpace = 4096;    ///< microbenchmark key space
    std::uint64_t spsElements = 65536;///< SPS array length
    std::uint64_t seed = 42;
    /**
     * Per-core key partitioning for the keyed microbenchmarks: core c
     * draws from its own keySpace/keyShards shard, so cores never touch
     * the same keys (the "partitioned" scaling scenario).  1 keeps the
     * full key space shared across cores.
     */
    unsigned keyShards = 1;

    bool operator==(const WorkloadScale &) const = default;
};

/** Printable workload name as in the paper. */
const char *workloadKindName(WorkloadKind kind);

/** Parse a Table 3 name ("BTree-Rand", ...). */
WorkloadKind parseWorkloadKind(const std::string &name);

/** The seven microbenchmarks of Figures 5-7, in plot order. */
std::vector<WorkloadKind> microbenchmarks();

/** The two real workloads of Tables 4-5. */
std::vector<WorkloadKind> realWorkloads();

/** Build a workload bound to @p backend. */
std::unique_ptr<Workload> makeWorkload(WorkloadKind kind,
                                       AtomicityBackend &backend,
                                       PersistAlloc &alloc,
                                       const WorkloadScale &scale);

} // namespace ssp

#endif // SSP_WORKLOADS_WORKLOAD_FACTORY_HH
