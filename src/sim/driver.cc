#include "sim/driver.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "core/config.hh"

namespace ssp
{

double
RunResult::tps() const
{
    if (cycles == 0)
        return 0;
    const double seconds =
        static_cast<double>(cycles) / (kCoreGHz * 1e9);
    return static_cast<double>(committedTxs) / seconds;
}

double
RunResult::writesPerTx() const
{
    if (committedTxs == 0)
        return 0;
    return static_cast<double>(nvramWrites) /
           static_cast<double>(committedTxs);
}

double
RunResult::imbalance() const
{
    std::uint64_t total = 0;
    std::uint64_t peak = 0;
    for (std::uint64_t busy : coreBusyCycles) {
        total += busy;
        peak = std::max(peak, busy);
    }
    if (total == 0 || coreBusyCycles.empty())
        return 0;
    const double mean = static_cast<double>(total) /
                        static_cast<double>(coreBusyCycles.size());
    return static_cast<double>(peak) / mean;
}

namespace
{

/**
 * RunResult's additive counters: a run's value is the difference of two
 * snapshots, a cluster's the sum over its shards.  cycles (a clock, so
 * a max across shards), the write-set statistics and journalWrites
 * (derived) are handled apart.
 */
constexpr std::uint64_t RunResult::*kSummedCounters[] = {
    &RunResult::committedTxs,
    &RunResult::nvramWrites,
    &RunResult::loggingWrites,
    &RunResult::dataWrites,
    &RunResult::consolidationWrites,
    &RunResult::checkpointWrites,
    &RunResult::coherenceFlips,
    &RunResult::coherenceInvalidations,
    &RunResult::coherenceShootdowns,
    &RunResult::coherenceMessages,
    &RunResult::directoryLookups,
    &RunResult::hopTraversalCycles,
    &RunResult::snoopFilterEvictions,
    &RunResult::backInvalidations,
    &RunResult::txAborts,
    &RunResult::txRetries,
    &RunResult::conflictsWriteWrite,
    &RunResult::conflictsReadWrite,
    &RunResult::backoffCycles,
};

/** Journal writes are the logging writes that are not checkpoints. */
void
deriveJournalWrites(RunResult &r)
{
    r.journalWrites = r.loggingWrites - r.checkpointWrites;
}

} // namespace

RunResult
readCounters(Experiment &exp)
{
    AtomicityBackend &be = *exp.backend;
    Machine &machine = be.machine();
    MemoryBus &bus = machine.bus();
    const CoherenceModel &coh = machine.coherence();
    const ConflictStats &conflicts = machine.conflicts().stats();
    const TxCharacterization &charz = be.characterization();

    RunResult r;
    r.backend = be.name();
    r.workload = exp.workload->name();
    r.committedTxs = be.committedTxs();
    r.cycles = machine.maxClock();
    r.nvramWrites = bus.nvramWrites();
    r.loggingWrites = be.loggingWrites();
    r.dataWrites = bus.nvramWrites(WriteCategory::Data) +
                   bus.nvramWrites(WriteCategory::PageCopy);
    r.consolidationWrites = bus.nvramWrites(WriteCategory::Consolidation);
    r.checkpointWrites = bus.nvramWrites(WriteCategory::Checkpoint);
    deriveJournalWrites(r);
    r.avgLinesPerTx = charz.linesPerTx.mean();
    r.avgPagesPerTx = charz.pagesPerTx.mean();
    r.maxPagesPerTx = charz.pagesPerTx.max();
    r.coherenceFlips = coh.flipMessages();
    r.coherenceInvalidations = coh.invalidations();
    r.coherenceShootdowns = coh.shootdownsDelivered();
    r.coherenceMessages = coh.messages();
    r.directoryLookups = coh.directoryLookups();
    r.hopTraversalCycles = coh.hopTraversalCycles();
    r.snoopFilterEvictions = coh.snoopFilterEvictions();
    r.backInvalidations = coh.backInvalidations();
    r.txAborts = conflicts.aborts;
    r.txRetries = conflicts.retries;
    r.conflictsWriteWrite = conflicts.writeWriteConflicts;
    r.conflictsReadWrite = conflicts.readWriteConflicts;
    r.backoffCycles = conflicts.backoffCycles;
    return r;
}

RunResult
counterDelta(const RunResult &now, const RunResult &base)
{
    RunResult d = now;
    d.cycles = now.cycles - base.cycles;
    for (std::uint64_t RunResult::*counter : kSummedCounters)
        d.*counter -= base.*counter;
    deriveJournalWrites(d);
    return d;
}

RunResult
sumRuns(const std::vector<RunResult> &shards)
{
    const std::size_t num_cores = shards[0].coreTxs.size();
    RunResult agg;
    agg.backend = shards[0].backend;
    agg.workload = shards[0].workload;
    agg.coreBusyCycles.assign(num_cores, 0);
    agg.coreTxs.assign(num_cores, 0);
    for (const RunResult &s : shards) {
        for (std::uint64_t RunResult::*counter : kSummedCounters)
            agg.*counter += s.*counter;
        agg.cycles = std::max(agg.cycles, s.cycles);
        agg.avgLinesPerTx += s.avgLinesPerTx;
        agg.avgPagesPerTx += s.avgPagesPerTx;
        agg.maxPagesPerTx = std::max(agg.maxPagesPerTx, s.maxPagesPerTx);
        for (std::size_t c = 0; c < num_cores; ++c) {
            agg.coreBusyCycles[c] += s.coreBusyCycles[c];
            agg.coreTxs[c] += s.coreTxs[c];
        }
    }
    agg.avgLinesPerTx /= static_cast<double>(shards.size());
    agg.avgPagesPerTx /= static_cast<double>(shards.size());
    deriveJournalWrites(agg);
    return agg;
}

std::vector<RunResult>
runRoundRobin(std::span<Experiment> machines, std::uint64_t slots,
              unsigned num_cores, const SlotOp &op,
              const std::function<void()> &at_slot_start)
{
    const auto num_machines = static_cast<unsigned>(machines.size());
    auto machine = [&](unsigned m) -> Machine & {
        return machines[m].backend->machine();
    };

    std::vector<RunResult> base;
    base.reserve(num_machines);
    for (unsigned m = 0; m < num_machines; ++m) {
        ssp_assert(num_cores >= 1 &&
                       num_cores <= machine(m).cfg().numCores,
                   "run uses more cores than the machine has");
        machine(m).syncClocks();
        base.push_back(readCounters(machines[m]));
    }

    // Per-(machine, core) busy cycles and operation counts.
    std::vector<std::vector<std::uint64_t>> busy(
        num_machines, std::vector<std::uint64_t>(num_cores, 0));
    std::vector<std::vector<std::uint64_t>> ops(
        num_machines, std::vector<std::uint64_t>(num_cores, 0));
    // Core clocks at the start of the current operation, per machine:
    // the operation's peer is only known once it has run.
    std::vector<Cycles> op_start(num_machines);
    auto charge = [&](unsigned m, CoreId core) {
        busy[m][core] += machine(m).clock(core) - op_start[m];
        ++ops[m][core];
    };

    for (std::uint64_t i = 0; i < slots; ++i) {
        const CoreId core = static_cast<CoreId>(i % num_cores);
        if (at_slot_start)
            at_slot_start();
        for (unsigned m = 0; m < num_machines; ++m) {
            for (unsigned x = 0; x < num_machines; ++x)
                op_start[x] = machine(x).clock(core);
            const unsigned peer = op(m, core);
            ssp_assert(peer < num_machines, "slot ran outside the run");
            if (peer != m)
                charge(peer, core);
            charge(m, core);
        }
        // Bulk-synchronous rounds, per machine: re-align core clocks
        // after each round-robin cycle so shared-resource timing (bus,
        // banks) is not distorted by simulation-order clock skew.
        // Machines never share a barrier: a cluster has no global
        // clock, and cross-machine waits are priced by the network.
        if (num_cores > 1 && core == num_cores - 1) {
            for (unsigned m = 0; m < num_machines; ++m)
                machine(m).syncClocks();
        }
    }

    std::vector<RunResult> res;
    res.reserve(num_machines);
    for (unsigned m = 0; m < num_machines; ++m) {
        if (num_cores > 1)
            machine(m).syncClocks();
        for (CoreId c = 0; c < num_cores; ++c) {
            ssp_assert(machine(m).clock(c) == machine(m).maxClock(),
                       "core clocks skewed after the final barrier");
        }
        RunResult &r = res.emplace_back(
            counterDelta(readCounters(machines[m]), base[m]));
        r.coreBusyCycles = std::move(busy[m]);
        r.coreTxs = std::move(ops[m]);
    }
    return res;
}

RunResult
runExperiment(Experiment &exp, std::uint64_t num_txs, unsigned num_cores)
{
    auto op = [&](unsigned machine, CoreId core) {
        exp.workload->runOp(core);
        return machine;
    };
    return std::move(runRoundRobin(std::span<Experiment>(&exp, 1),
                                   num_txs, num_cores, op)
                         .front());
}

} // namespace ssp
