#include "sim/driver.hh"

#include <queue>
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

RunBaseline
captureRunBaseline(Experiment &exp)
{
    AtomicityBackend &be = *exp.backend;
    Machine &machine = be.machine();
    MemoryBus &bus = machine.bus();
    const CoherenceModel &coh = machine.coherence();
    RunBaseline base;
    base.clock = machine.maxClock();
    base.commits = be.committedTxs();
    base.nvramWrites = bus.nvramWrites();
    base.loggingWrites = be.loggingWrites();
    base.dataWrites = bus.nvramWrites(WriteCategory::Data) +
                      bus.nvramWrites(WriteCategory::PageCopy);
    base.consolidationWrites =
        bus.nvramWrites(WriteCategory::Consolidation);
    base.checkpointWrites = bus.nvramWrites(WriteCategory::Checkpoint);
    base.coherenceFlips = coh.flipMessages();
    base.coherenceInvalidations = coh.invalidations();
    base.coherenceShootdowns = coh.shootdownsDelivered();
    base.coherenceMessages = coh.messages();
    base.directoryLookups = coh.directoryLookups();
    base.hopTraversalCycles = coh.hopTraversalCycles();
    base.snoopFilterEvictions = coh.snoopFilterEvictions();
    base.backInvalidations = coh.backInvalidations();
    base.conflicts = machine.conflicts().stats();
    return base;
}

void
finishRunMetrics(RunResult &res, Experiment &exp, const RunBaseline &base)
{
    AtomicityBackend &be = *exp.backend;
    Machine &machine = be.machine();
    MemoryBus &bus = machine.bus();
    const CoherenceModel &coh = machine.coherence();

    res.backend = be.name();
    res.workload = exp.workload->name();
    res.committedTxs = be.committedTxs() - base.commits;
    res.cycles = machine.maxClock() - base.clock;
    res.nvramWrites = bus.nvramWrites() - base.nvramWrites;
    res.loggingWrites = be.loggingWrites() - base.loggingWrites;
    res.dataWrites = bus.nvramWrites(WriteCategory::Data) +
                     bus.nvramWrites(WriteCategory::PageCopy) -
                     base.dataWrites;
    res.consolidationWrites =
        bus.nvramWrites(WriteCategory::Consolidation) -
        base.consolidationWrites;
    res.checkpointWrites = bus.nvramWrites(WriteCategory::Checkpoint) -
                           base.checkpointWrites;
    res.journalWrites = res.loggingWrites - res.checkpointWrites;
    res.coherenceFlips = coh.flipMessages() - base.coherenceFlips;
    res.coherenceInvalidations =
        coh.invalidations() - base.coherenceInvalidations;
    res.coherenceShootdowns =
        coh.shootdownsDelivered() - base.coherenceShootdowns;
    res.coherenceMessages = coh.messages() - base.coherenceMessages;
    res.directoryLookups = coh.directoryLookups() - base.directoryLookups;
    res.hopTraversalCycles =
        coh.hopTraversalCycles() - base.hopTraversalCycles;
    res.snoopFilterEvictions =
        coh.snoopFilterEvictions() - base.snoopFilterEvictions;
    res.backInvalidations =
        coh.backInvalidations() - base.backInvalidations;
    const ConflictStats &conflicts = machine.conflicts().stats();
    res.txAborts = conflicts.aborts - base.conflicts.aborts;
    res.txRetries = conflicts.retries - base.conflicts.retries;
    res.conflictsWriteWrite = conflicts.writeWriteConflicts -
                              base.conflicts.writeWriteConflicts;
    res.conflictsReadWrite = conflicts.readWriteConflicts -
                             base.conflicts.readWriteConflicts;
    res.backoffCycles =
        conflicts.backoffCycles - base.conflicts.backoffCycles;

    const TxCharacterization &charz = be.characterization();
    res.avgLinesPerTx = charz.linesPerTx.mean();
    res.avgPagesPerTx = charz.pagesPerTx.mean();
    res.maxPagesPerTx = charz.pagesPerTx.max();
}

RunResult
runExperiment(Experiment &exp, std::uint64_t num_txs, unsigned num_cores,
              ScheduleMode mode, const RunHooks &hooks)
{
    AtomicityBackend &be = *exp.backend;
    Machine &machine = be.machine();
    ssp_assert(num_cores >= 1 && num_cores <= machine.cfg().numCores,
               "run uses more cores than the machine has");

    machine.syncClocks();
    const RunBaseline base = captureRunBaseline(exp);

    RunResult res;
    res.coreBusyCycles.assign(num_cores, 0);
    res.coreTxs.assign(num_cores, 0);

    auto run_one = [&](CoreId core) {
        const Cycles op_start = machine.clock(core);
        exp.workload->runOp(core);
        res.coreBusyCycles[core] += machine.clock(core) - op_start;
        ++res.coreTxs[core];
    };

    if (mode == ScheduleMode::Rounds) {
        for (std::uint64_t i = 0; i < num_txs; ++i) {
            const CoreId core = static_cast<CoreId>(i % num_cores);
            if (hooks.beforeOp)
                hooks.beforeOp(i);
            run_one(core);
            // Bulk-synchronous rounds: re-align core clocks after each
            // round-robin cycle so shared-resource timing (bus, banks)
            // is not distorted by simulation-order clock skew.
            if (num_cores > 1 && core == num_cores - 1)
                machine.syncClocks();
        }
        // A final partial round (num_txs % num_cores != 0) must not
        // leave core clocks skewed relative to the bulk-synchronous
        // model — the run ends on the same barrier every full round
        // ends on.
        if (num_cores > 1)
            machine.syncClocks();
        for (unsigned c = 0; c < num_cores; ++c) {
            ssp_assert(machine.clock(c) == machine.maxClock(),
                       "core clocks skewed after the final barrier");
        }
    } else {
        // Event-driven: always dispatch the core with the lowest clock
        // (ties to the lowest core id, so the order is deterministic).
        // Heap keys can go stale — peer invalidations and shootdown
        // charges advance *other* cores' clocks mid-op — so a popped
        // entry whose key no longer matches the core's clock is
        // re-pushed with the corrected key instead of dispatched.
        // Clocks only move forward, so the loop terminates.
        using HeapEntry = std::pair<Cycles, CoreId>;
        std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                            std::greater<HeapEntry>>
            ready;
        for (unsigned c = 0; c < num_cores; ++c)
            ready.emplace(machine.clock(c), c);
        for (std::uint64_t i = 0; i < num_txs; ++i) {
            for (;;) {
                const auto [when, core] = ready.top();
                if (when != machine.clock(core)) {
                    ready.pop();
                    ready.emplace(machine.clock(core), core);
                    continue;
                }
                ready.pop();
                if (hooks.beforeOp)
                    hooks.beforeOp(i);
                run_one(core);
                ready.emplace(machine.clock(core), core);
                break;
            }
        }
    }

    finishRunMetrics(res, exp, base);
    return res;
}

} // namespace ssp
