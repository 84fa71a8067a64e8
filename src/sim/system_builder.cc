#include "sim/system_builder.hh"

#include "common/logging.hh"

namespace ssp
{

Experiment
Experiment::clone() const
{
    Experiment copy;
    copy.backend = backend->clone();
    copy.alloc = std::make_unique<PersistAlloc>(*alloc);
    copy.workload = workload->clone(*copy.backend, *copy.alloc);
    return copy;
}

void
Experiment::widen(unsigned num_cores, unsigned key_shards)
{
    backend->widen(num_cores);
    workload->setKeyShards(key_shards);
}

Experiment
makeExperiment(BackendKind backend_kind, WorkloadKind workload_kind,
               const SspConfig &cfg, const WorkloadScale &scale)
{
    Experiment exp;
    exp.backend = makeBackend(backend_kind, cfg);
    // Workloads allocate from the start of the persistent heap.
    exp.alloc = std::make_unique<PersistAlloc>(
        kPageSize, // keep page 0 unused as a null guard
        cfg.heapPages * kPageSize);
    exp.workload =
        makeWorkload(workload_kind, *exp.backend, *exp.alloc, scale);
    return exp;
}

Experiment
buildExperiment(BackendKind backend_kind, WorkloadKind workload_kind,
                const SspConfig &cfg, const WorkloadScale &scale)
{
    Experiment exp = makeExperiment(backend_kind, workload_kind, cfg, scale);
    exp.workload->setup();
    return exp;
}

} // namespace ssp
