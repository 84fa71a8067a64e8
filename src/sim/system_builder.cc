#include "sim/system_builder.hh"

#include "common/logging.hh"

namespace ssp
{

Experiment
buildExperiment(BackendKind backend_kind, WorkloadKind workload_kind,
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
    exp.workload->setup();
    return exp;
}

} // namespace ssp
