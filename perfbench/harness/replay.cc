#include "harness/replay.hh"

#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault_injector.hh"
#include "serve/server.hh"
#include "shard/cluster.hh"

namespace perfbench
{

namespace
{

using namespace ssp;

/** @{ Seed ordinals runSweep derives a cell's arrival and routing
 *  streams from (src/sweep/sweep_runner.cc keeps them file-local).  A
 *  mismatch shows as a traced/untraced identity failure. */
constexpr std::uint64_t kArrivalSeedOrdinal = 101;
constexpr std::uint64_t kRouteSeedOrdinal = 211;
/** @} */

/** verify() every machine's workload (timed as one verify span). */
bool
verifyAll(SpanLog &log, std::size_t index,
          const std::vector<Experiment *> &machines)
{
    ScopedSpan span(log, "workloads.verify", "verify", index);
    bool ok = true;
    for (Experiment *e : machines)
        ok = e->workload->verify() && ok;
    return ok;
}

/** verify(), then crash+recover every backend and verify() again:
 *  committed state must survive a power failure. */
bool
verifyRecoverVerify(SpanLog &log, std::size_t index,
                    const std::vector<Experiment *> &machines)
{
    const bool before = verifyAll(log, index, machines);
    {
        ScopedSpan span(log, "baselines.recover", "recover", index);
        for (Experiment *e : machines) {
            e->backend->crash();
            e->backend->recover();
        }
    }
    return verifyAll(log, index, machines) && before;
}

void
replaySingle(const sweep::SweepCell &cell, std::size_t index, SpanLog &log,
             ReplayOutcome &out)
{
    const SspConfig cfg = cell.config();
    Experiment exp;
    {
        ScopedSpan span(log, "baselines.build", "build", index);
        exp.backend = makeBackend(cell.backend, cfg);
    }
    {
        ScopedSpan span(log, "workloads.setup", "setup", index);
        // Page 0 stays unused as a null guard, as in buildExperiment.
        exp.alloc = std::make_unique<PersistAlloc>(
            kPageSize, cfg.heapPages * kPageSize);
        exp.workload =
            makeWorkload(cell.workload, *exp.backend, *exp.alloc, cell.scale);
        exp.workload->setup();
    }
    out.setupTxs = exp.backend->committedTxs();
    if (cell.offeredLoad > 0) {
        ScopedSpan span(log, "serve.run", "run", index);
        serve::ServeParams params;
        params.arrival = cell.arrival;
        params.offeredLoad = cell.offeredLoad;
        params.seed = sweep::deriveCellSeed(cell.scale.seed,
                                            kArrivalSeedOrdinal);
        out.result.run =
            serve::runServeExperiment(exp, cell.txs, cell.cores, params);
    } else {
        ScopedSpan span(log, "sim.run", "run", index);
        out.result.run = runExperiment(exp, cell.txs, cell.cores);
    }
    out.result.ok = verifyRecoverVerify(log, index, {&exp});
    ScopedSpan span(log, "sim.teardown", "teardown", index);
    Experiment dead = std::move(exp);
}

void
replayCluster(const sweep::SweepCell &cell, std::size_t index, SpanLog &log,
              ReplayOutcome &out)
{
    std::optional<shard::Cluster> cluster;
    {
        ScopedSpan span(log, "shard.build", "build", index);
        cluster.emplace(cell.backend, cell.workload, cell.config(),
                        cell.scale, cell.machines);
    }
    for (unsigned m = 0; m < cluster->machines(); ++m)
        out.setupTxs += cluster->shard(m).backend->committedTxs();

    std::unique_ptr<fault::FaultInjector> inj;
    {
        ScopedSpan span(log, "shard.run", "run", index);
        if (cell.faultRate > 0 || cell.replicate) {
            fault::FaultParams fp;
            fp.ratePerMcycle = cell.faultRate;
            fp.replicate = cell.replicate;
            fp.seed = sweep::deriveCellSeed(cell.scale.seed,
                                            fault::kFaultSeedOrdinal);
            inj = std::make_unique<fault::FaultInjector>(
                *cluster, fp,
                sweep::deriveCellSeed(cell.scale.seed,
                                      fault::kNetFaultSeedOrdinal),
                cell.crossShardFraction);
        }
        shard::ShardRunResult sr = shard::runClusterExperiment(
            *cluster, cell.txs, cell.cores, cell.crossShardFraction,
            sweep::deriveCellSeed(cell.scale.seed, kRouteSeedOrdinal),
            inj.get());
        out.result.run = std::move(sr.aggregate);
        out.result.shardRuns = std::move(sr.shards);
        out.result.shardTx = sr.tx;
        out.result.networkMessages = sr.networkMessages;
        out.result.networkCycles = sr.networkCycles;
        if (inj != nullptr)
            out.result.faultStats = inj->stats();
    }
    std::vector<Experiment *> machines;
    for (unsigned m = 0; m < cluster->machines(); ++m)
        machines.push_back(&cluster->shard(m));
    out.result.ok = verifyRecoverVerify(log, index, machines);
    ScopedSpan span(log, "sim.teardown", "teardown", index);
    inj.reset(); // holds a reference into the cluster
    cluster.reset();
}

} // namespace

ReplayOutcome
replayCell(const sweep::SweepCell &cell, std::size_t index, SpanLog &log)
{
    ReplayOutcome out;
    out.result.cell = cell;
    ScopedSpan root(log, "sweep.cell", "cell", index);
    try {
        if (cell.machines > 1 || cell.faultRate > 0 || cell.replicate)
            replayCluster(cell, index, log, out);
        else
            replaySingle(cell, index, log, out);
        if (!out.result.ok)
            out.result.error = "verify() failed";
    } catch (const std::exception &e) {
        out.result.ok = false;
        out.result.error = e.what();
    }
    return out;
}

} // namespace perfbench
