/**
 * @file
 * Builds a complete experiment: a backend (one of the four designs), an
 * allocator over its persistent heap, and a workload — then runs the
 * setup phase.  The measured run snapshots its own baseline
 * (readCounters in sim/driver.hh).
 */

#ifndef SSP_SIM_SYSTEM_BUILDER_HH
#define SSP_SIM_SYSTEM_BUILDER_HH

#include <memory>

#include "baselines/backend_factory.hh"
#include "core/config.hh"
#include "workloads/workload_factory.hh"

namespace ssp
{

/** One ready-to-run experiment instance. */
struct Experiment
{
    std::unique_ptr<AtomicityBackend> backend;
    std::unique_ptr<PersistAlloc> alloc;
    std::unique_ptr<Workload> workload;

    /**
     * An independent copy of the whole experiment: running the copy
     * gives bit for bit the results running this one would.
     */
    Experiment clone() const;

    /**
     * Grow the machine to @p num_cores idle cores and partition the
     * workload's keys into @p key_shards shards (AtomicityBackend::widen):
     * after setup, this equals building and setting up the experiment
     * at that size, which setup never reads the shard count for.
     */
    void widen(unsigned num_cores, unsigned key_shards);
};

/**
 * Construct backend + allocator + workload, without running setup.
 */
Experiment makeExperiment(BackendKind backend_kind,
                          WorkloadKind workload_kind, const SspConfig &cfg,
                          const WorkloadScale &scale);

/**
 * makeExperiment(), then Workload::setup().
 */
Experiment buildExperiment(BackendKind backend_kind,
                           WorkloadKind workload_kind, const SspConfig &cfg,
                           const WorkloadScale &scale);

} // namespace ssp

#endif // SSP_SIM_SYSTEM_BUILDER_HH
