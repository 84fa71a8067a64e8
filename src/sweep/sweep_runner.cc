#include "sweep/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "serve/server.hh"
#include "sim/system_builder.hh"

namespace ssp::sweep
{

namespace
{

/** Ordinal separating a cell's arrival stream from its key stream. */
constexpr std::uint64_t kArrivalSeedOrdinal = 101;

/** Ordinal separating a shard cell's routing stream from its keys. */
constexpr std::uint64_t kRouteSeedOrdinal = 211;

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/**
 * Fault-armed cells always go through the cluster driver, even with one
 * machine, so scheduled failures have slot boundaries to fire at.
 * Unarmed cells keep their historical paths.
 */
bool
runsOnCluster(const SweepCell &cell)
{
    return cell.machines > 1 || cell.faultRate > 0 || cell.replicate;
}

/** An open-loop cell: it serves after a calibration phase. */
bool
servesOpenLoop(const SweepCell &cell)
{
    return cell.offeredLoad > 0 && !runsOnCluster(cell);
}

/**
 * A cell whose post-setup state is the same at every core count but
 * for the idle cores' parts, so a state set up on fewer cores widens
 * to it (Experiment::widen): a closed-loop, single-machine cell under
 * broadcast coherence, with the sharer index on.  Setup runs on core 0
 * alone.  Its cost still follows the core count under the directory,
 * whose mesh grows with the machine, and on one core, which sends no
 * flip broadcasts; and the sharer index cannot switch on after fills.
 */
bool
widensAcrossCores(const SweepCell &cell)
{
    return !runsOnCluster(cell) && cell.offeredLoad == 0 &&
           cell.coherenceMode == CoherenceMode::Broadcast &&
           cell.cores >= CacheHierarchy::kSharerIndexMinCores;
}

/**
 * Every input the state a cell starts its run from depends on: what
 * buildExperiment and the Cluster constructor read, plus what an
 * open-loop cell's calibration reads.  Cells with equal keys start
 * from identical states, so they share one.  Config and scale compare
 * whole (defaulted operator==), so a field added to either later can
 * never alias two different setups.  A widening cell's key leaves out
 * its core and key-shard counts — setup reads neither — but keeps the
 * SSP cache size, which can follow the core count.
 */
struct SetupKey
{
    BackendKind backend;
    WorkloadKind workload;
    SspConfig config;
    WorkloadScale scale;
    unsigned sspSlots;
    unsigned machines;
    /** The calibration's core and request counts; 0 unless open-loop. */
    unsigned calibrationCores;
    std::uint64_t calibrationTxs;

    bool operator==(const SetupKey &) const = default;
};

SetupKey
setupKey(const SweepCell &cell)
{
    const bool serve = servesOpenLoop(cell);
    SetupKey key{.backend = cell.backend,
                 .workload = cell.workload,
                 .config = cell.config(),
                 .scale = cell.scale,
                 .sspSlots = cell.config().effectiveSspSlots(),
                 .machines = cell.machines,
                 .calibrationCores = serve ? cell.cores : 0u,
                 .calibrationTxs = serve ? cell.txs : 0};
    if (widensAcrossCores(cell)) {
        key.config.numCores = 0;
        key.scale.keyShards = 0;
    }
    return key;
}

/** Cell indices grouped by setup key, in order of first appearance. */
std::vector<std::vector<std::size_t>>
groupBySetup(const std::vector<SweepCell> &cells)
{
    std::vector<SetupKey> keys;
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SetupKey key = setupKey(cells[i]);
        const auto it = std::find(keys.begin(), keys.end(), key);
        if (it != keys.end()) {
            groups[static_cast<std::size_t>(it - keys.begin())].push_back(i);
        } else {
            keys.push_back(std::move(key));
            groups.push_back({i});
        }
    }
    return groups;
}

/**
 * The state a setup group's cells start their runs from: the cluster
 * they run on (one machine unless the cell runs on the cluster
 * driver), plus an open-loop group's calibration.
 */
struct SetupState
{
    shard::Cluster cluster;
    serve::Calibration calibration{};

    SetupState
    clone() const
    {
        return {cluster.clone(), calibration};
    }
};

/**
 * Build and set up @p cell's state, adding the host time of each phase
 * to @p res (a calibration counts as setup: it is shared like one).
 * Shard m is built exactly as the Cluster constructor builds it.
 */
SetupState
buildState(const SweepCell &cell, CellResult &res)
{
    const SspConfig cfg = cell.config();
    std::vector<Experiment> shards;
    for (unsigned m = 0; m < cell.machines; ++m) {
        const auto build_start = Clock::now();
        Experiment exp =
            makeExperiment(cell.backend, cell.workload, cfg,
                           shard::Cluster::shardScale(cell.scale, m));
        res.hostMillisBuild += msSince(build_start);
        const auto setup_start = Clock::now();
        exp.workload->setup();
        res.hostMillisSetup += msSince(setup_start);
        shards.push_back(std::move(exp));
    }
    SetupState state{shard::Cluster(std::move(shards))};
    if (servesOpenLoop(cell)) {
        const auto calib_start = Clock::now();
        state.calibration = serve::calibrateServe(state.cluster.shard(0),
                                                  cell.txs, cell.cores);
        res.hostMillisSetup += msSince(calib_start);
    }
    return state;
}

/** Widen @p state, set up for @p cell's group, to @p cell's core and
 *  key-shard counts. */
void
widenState(const SweepCell &cell, SetupState &state)
{
    state.cluster.shard(0).widen(cell.cores, cell.scale.keyShards);
}

/** Run @p cell from @p state, which is left as the run leaves it. */
void
runCell(const SweepCell &cell, SetupState &state, CellResult &res)
{
    const auto run_start = Clock::now();
    if (runsOnCluster(cell)) {
        // Cluster cell: each machine has its own Experiment (own seed
        // stream, see Cluster::shardSeed) and the routing stream
        // deciding which slots go cross-shard draws from a third,
        // independent stream.
        shard::Cluster &cluster = state.cluster;
        std::unique_ptr<fault::FaultInjector> inj;
        if (cell.faultRate > 0 || cell.replicate) {
            fault::FaultParams fp;
            fp.ratePerMcycle = cell.faultRate;
            fp.replicate = cell.replicate;
            fp.seed =
                deriveCellSeed(cell.scale.seed, fault::kFaultSeedOrdinal);
            inj = std::make_unique<fault::FaultInjector>(
                cluster, fp,
                deriveCellSeed(cell.scale.seed,
                               fault::kNetFaultSeedOrdinal),
                cell.crossShardFraction);
        }
        shard::ShardRunResult sr = shard::runClusterExperiment(
            cluster, cell.txs, cell.cores, cell.crossShardFraction,
            deriveCellSeed(cell.scale.seed, kRouteSeedOrdinal), inj.get());
        res.run = std::move(sr.aggregate);
        res.shardRuns = std::move(sr.shards);
        res.shardTx = sr.tx;
        res.networkMessages = sr.networkMessages;
        res.networkCycles = sr.networkCycles;
        if (inj != nullptr)
            res.faultStats = inj->stats();
    } else if (cell.offeredLoad > 0) {
        // Open-loop cell: txs counts generated requests, and the
        // arrival process draws from its own stream so the key stream
        // stays identical to the closed-loop cells'.
        serve::ServeParams params;
        params.arrival = cell.arrival;
        params.offeredLoad = cell.offeredLoad;
        params.seed = deriveCellSeed(cell.scale.seed, kArrivalSeedOrdinal);
        res.run = serve::serveCalibrated(state.cluster.shard(0), cell.txs,
                                         state.calibration, params);
    } else {
        res.run = runExperiment(state.cluster.shard(0), cell.txs,
                                cell.cores);
    }
    res.ok = true;
    res.hostMillisRun = msSince(run_start);
}

/**
 * Run one setup group: build its state once, at the group's smallest
 * core count, run every cell but the last on a clone of it and the
 * last on the original itself, each first widened to the cell's core
 * count when its group has a widened key.  At most the original and one
 * clone are alive at a time, and a group of one never clones.  The
 * last cell, which consumes the original, carries the build and setup
 * time; every cell carries its clone and widening time.  A cell that
 * throws is captured as !ok; a failed build fails every cell of the
 * group.
 */
void
runGroup(const std::vector<SweepCell> &cells,
         const std::vector<std::size_t> &group,
         std::vector<CellResult> &results,
         const std::function<void(std::size_t)> &finished)
{
    for (std::size_t i : group)
        results[i].cell = cells[i];
    CellResult &owner = results[group.back()];
    const std::size_t smallest = *std::ranges::min_element(
        group, {}, [&](std::size_t i) { return cells[i].cores; });
    std::optional<SetupState> original;
    std::string build_error;
    const auto build_start = Clock::now();
    try {
        original.emplace(buildState(cells[smallest], owner));
    } catch (const std::exception &e) {
        build_error = e.what();
    }
    owner.hostMillis = msSince(build_start);

    for (std::size_t k = 0; k < group.size(); ++k) {
        CellResult &res = results[group[k]];
        const bool last = k + 1 == group.size();
        const auto host_start = Clock::now();
        try {
            if (!original)
                throw std::runtime_error(build_error);
            const bool widens = widensAcrossCores(res.cell);
            if (last) {
                if (widens) {
                    const auto widen_start = Clock::now();
                    widenState(res.cell, *original);
                    res.hostMillisClone = msSince(widen_start);
                }
                runCell(res.cell, *original, res);
            } else {
                const auto clone_start = Clock::now();
                SetupState copy = original->clone();
                if (widens)
                    widenState(res.cell, copy);
                res.hostMillisClone = msSince(clone_start);
                runCell(res.cell, copy, res);
            }
        } catch (const std::exception &e) {
            res.error = e.what();
        }
        if (last)
            original.reset();
        res.hostMillis += msSince(host_start);
        finished(group[k]);
    }
}

} // namespace

std::vector<CellResult>
runSweep(const std::vector<SweepCell> &cells, unsigned jobs,
         const CellCallback &on_cell)
{
    std::vector<CellResult> results(cells.size());
    const std::vector<std::vector<std::size_t>> groups =
        groupBySetup(cells);
    if (groups.empty())
        return results;

    jobs = std::max(1u, jobs);
    jobs = static_cast<unsigned>(
        std::min<std::size_t>(jobs, groups.size()));

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex cb_mutex;
    auto finished = [&](std::size_t i) {
        const std::size_t count = done.fetch_add(1) + 1;
        if (on_cell) {
            std::lock_guard<std::mutex> lock(cb_mutex);
            on_cell(results[i], count, cells.size());
        }
    };

    auto worker = [&]() {
        for (std::size_t g = next.fetch_add(1); g < groups.size();
             g = next.fetch_add(1))
            runGroup(cells, groups[g], results, finished);
    };

    if (jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    return results;
}

Json
sweepReport(const std::string &figure,
            const std::vector<CellResult> &results, bool include_host_time)
{
    Json doc = Json::object();
    doc.set("schema", Json::str("ssp-bench-report-v1"));
    doc.set("figure", Json::str(figure));
    doc.set("cell_count", Json::number(
        static_cast<std::uint64_t>(results.size())));
    if (include_host_time) {
        double total_ms = 0;
        for (const CellResult &r : results)
            total_ms += r.hostMillis;
        doc.set("host_ms_total", Json::number(total_ms));
    }

    Json cells = Json::array();
    for (const CellResult &r : results) {
        // The axes the cell's grid sweeps carry their coordinates (and
        // metrics) on every cell, constant-schema; elsewhere they appear
        // only where a cell deviates from the paper machine, so older
        // reports stay byte-identical.
        static const FigureSpec kNoGrid{};
        const FigureSpec *found = findFigure(r.cell.figure);
        const FigureSpec &row = found != nullptr ? *found : kNoGrid;
        const bool coherence_axis =
            !row.coherenceModes.empty() ||
            r.cell.coherenceMode != CoherenceMode::Broadcast;
        Json c = Json::object();
        c.set("label", Json::str(r.cell.label()));
        c.set("backend", Json::str(backendKindName(r.cell.backend)));
        c.set("workload", Json::str(workloadKindName(r.cell.workload)));
        c.set("cores", Json::number(std::uint64_t{r.cell.cores}));
        c.set("txs", Json::number(r.cell.txs));
        c.set("nvram_latency_multiplier",
              Json::number(r.cell.nvramLatencyMultiplier));
        c.set("ssp_cache_fixed_latency",
              Json::number(r.cell.sspCacheFixedLatency));
        if (!row.channels.empty() || r.cell.nvramChannels != 1)
            c.set("nvram_channels",
                  Json::number(std::uint64_t{r.cell.nvramChannels}));
        if (r.cell.nvramDevice != NvramDevice::PaperPcm)
            c.set("nvram_device",
                  Json::str(nvramDeviceName(r.cell.nvramDevice)));
        if (r.cell.keyShards > 1)
            c.set("key_shards",
                  Json::number(std::uint64_t{r.cell.keyShards}));
        if (r.cell.conflictMode != ConflictMode::FirstCommitterWins)
            c.set("conflict_mode",
                  Json::str(conflictModeName(r.cell.conflictMode)));
        // Open-loop coordinates exist only on serve cells, so every
        // closed-loop report stays byte-identical.
        if (r.cell.offeredLoad > 0)
            c.set("arrival",
                  Json::str(serve::arrivalKindName(r.cell.arrival)));
        if (coherence_axis) {
            c.set("coherence",
                  Json::str(coherenceModeName(r.cell.coherenceMode)));
        }
        if (!row.machines.empty() || r.cell.machines > 1)
            c.set("machines",
                  Json::number(std::uint64_t{r.cell.machines}));
        // The cross-shard fraction only where 2PC can happen, so the
        // 1-machine cells' entries mirror the scale grid's shape.
        if (r.cell.machines > 1)
            c.set("cross_shard_pct",
                  Json::number(static_cast<std::uint64_t>(std::lround(
                      r.cell.crossShardFraction * 100))));
        // Rates are emitted in integer tenths, like the label, so the
        // document never depends on float formatting.
        if (!row.faultRates.empty() || r.cell.faultRate > 0 ||
            r.cell.replicate) {
            c.set("fault_rate_tenths",
                  Json::number(static_cast<std::uint64_t>(
                      std::lround(r.cell.faultRate * 10))));
            c.set("replicated", Json::boolean(r.cell.replicate));
        }
        // Seeds span the full 64-bit range, past the 2^53 integers a
        // JSON number can hold exactly — emit them as hex strings.
        char seed_hex[32];
        std::snprintf(seed_hex, sizeof(seed_hex), "0x%016llx",
                      static_cast<unsigned long long>(r.cell.scale.seed));
        c.set("seed", Json::str(seed_hex));
        c.set("ok", Json::boolean(r.ok));
        // Host time is opt-in: it varies run to run, so it must never
        // leak into the byte-stable default reports.
        if (include_host_time) {
            c.set("host_ms", Json::number(r.hostMillis));
            c.set("host_ms_build", Json::number(r.hostMillisBuild));
            c.set("host_ms_setup", Json::number(r.hostMillisSetup));
            c.set("host_ms_clone", Json::number(r.hostMillisClone));
            c.set("host_ms_run", Json::number(r.hostMillisRun));
        }
        if (!r.ok) {
            c.set("error", Json::str(r.error));
            cells.push(std::move(c));
            continue;
        }

        Json m = Json::object();
        m.set("committed_txs", Json::number(r.run.committedTxs));
        m.set("cycles", Json::number(r.run.cycles));
        m.set("tps", Json::number(r.run.tps()));
        m.set("writes_per_tx", Json::number(r.run.writesPerTx()));
        m.set("avg_cycles_per_tx",
              Json::number(r.run.committedTxs > 0
                               ? static_cast<double>(r.run.cycles) /
                                     static_cast<double>(
                                         r.run.committedTxs)
                               : 0.0));
        m.set("nvram_writes", Json::number(r.run.nvramWrites));
        m.set("logging_writes", Json::number(r.run.loggingWrites));
        m.set("data_writes", Json::number(r.run.dataWrites));
        m.set("consolidation_writes",
              Json::number(r.run.consolidationWrites));
        m.set("checkpoint_writes", Json::number(r.run.checkpointWrites));
        m.set("journal_writes", Json::number(r.run.journalWrites));
        m.set("avg_lines_per_tx", Json::number(r.run.avgLinesPerTx));
        m.set("avg_pages_per_tx", Json::number(r.run.avgPagesPerTx));
        m.set("max_pages_per_tx", Json::number(r.run.maxPagesPerTx));
        // Multi-core-only metrics are gated on the core count so every
        // single-core report stays byte-identical to the 1-core model,
        // unless the grid asks for a constant schema along its core
        // axis.
        if (r.cell.cores > 1 || row.perCoreMetricsAlways) {
            Json busy = Json::array();
            for (std::uint64_t v : r.run.coreBusyCycles)
                busy.push(Json::number(v));
            m.set("core_busy_cycles", std::move(busy));
            Json per_core_txs = Json::array();
            for (std::uint64_t v : r.run.coreTxs)
                per_core_txs.push(Json::number(v));
            m.set("core_txs", std::move(per_core_txs));
            m.set("imbalance", Json::number(r.run.imbalance()));
            m.set("coherence_flips", Json::number(r.run.coherenceFlips));
            m.set("coherence_invalidations",
                  Json::number(r.run.coherenceInvalidations));
            m.set("coherence_shootdowns",
                  Json::number(r.run.coherenceShootdowns));
            // Interconnect traffic: the message count exists wherever the
            // coherence coordinate does (it is the broadcast-vs-directory
            // comparison axis); the directory-only counters exist iff
            // the cell ran the directory model.
            if (coherence_axis) {
                m.set("coherence_messages",
                      Json::number(r.run.coherenceMessages));
            }
            if (r.cell.coherenceMode == CoherenceMode::Directory) {
                m.set("directory_lookups",
                      Json::number(r.run.directoryLookups));
                m.set("hop_traversal_cycles",
                      Json::number(r.run.hopTraversalCycles));
                m.set("snoop_filter_evictions",
                      Json::number(r.run.snoopFilterEvictions));
                m.set("back_invalidations",
                      Json::number(r.run.backInvalidations));
            }
            m.set("tx_aborts", Json::number(r.run.txAborts));
            m.set("tx_retries", Json::number(r.run.txRetries));
            m.set("conflicts_write_write",
                  Json::number(r.run.conflictsWriteWrite));
            m.set("conflicts_read_write",
                  Json::number(r.run.conflictsReadWrite));
            m.set("backoff_cycles", Json::number(r.run.backoffCycles));
        }
        // 2PC and network metrics exist only where a network exists:
        // multi-machine cells.  1-machine shard cells keep the exact
        // single-machine metrics schema so scripts/check.sh can diff
        // them byte for byte against the scale grid's cells.
        if (r.cell.machines > 1) {
            m.set("single_shard_txs",
                  Json::number(r.shardTx.singleShardTxs));
            m.set("cross_shard_txs",
                  Json::number(r.shardTx.crossShardTxs));
            m.set("prepare_round_trips",
                  Json::number(r.shardTx.prepareRoundTrips));
            m.set("cross_shard_aborts",
                  Json::number(r.shardTx.crossShardAborts));
            m.set("coordinator_stall_cycles",
                  Json::number(r.shardTx.coordinatorStallCycles));
            m.set("network_messages", Json::number(r.networkMessages));
            m.set("network_cycles", Json::number(r.networkCycles));
            Json shard_cycles = Json::array();
            for (const RunResult &s : r.shardRuns)
                shard_cycles.push(Json::number(s.cycles));
            m.set("shard_cycles", std::move(shard_cycles));
            Json shard_txs = Json::array();
            for (const RunResult &s : r.shardRuns)
                shard_txs.push(Json::number(s.committedTxs));
            m.set("shard_committed_txs", std::move(shard_txs));
        }
        // Fault-harness metrics exist iff the cell could inject faults
        // (rate > 0): a zero-rate cell ran the byte-identical reliable
        // model and must not grow schema.  Replication metrics exist
        // iff replication was on — including at rate 0, where shipping
        // still prices every commit.
        if (r.cell.faultRate > 0) {
            m.set("injected_power_fails",
                  Json::number(r.faultStats.powerFails));
            m.set("coordinator_crashes",
                  Json::number(r.faultStats.coordinatorCrashes));
            m.set("participant_crashes",
                  Json::number(r.faultStats.participantCrashes));
            m.set("recoveries", Json::number(r.faultStats.recoveries));
            m.set("failovers", Json::number(r.faultStats.failovers));
            m.set("recovery_stall_cycles",
                  Json::number(r.faultStats.recoveryStallCycles));
            m.set("failover_stall_cycles",
                  Json::number(r.faultStats.failoverStallCycles));
            m.set("presumed_aborts",
                  Json::number(r.faultStats.presumedAborts));
            m.set("decision_records",
                  Json::number(r.faultStats.decisionRecords));
            m.set("messages_lost",
                  Json::number(r.faultStats.messagesLost));
            m.set("rpc_retries", Json::number(r.faultStats.rpcRetries));
            m.set("rpc_timeout_stall_cycles",
                  Json::number(r.faultStats.rpcTimeoutStallCycles));
            m.set("committed_despite_faults",
                  Json::number(r.faultStats.committedDespiteFaults));
        }
        if (r.cell.replicate) {
            m.set("log_ship_messages",
                  Json::number(r.faultStats.logShipMessages));
            m.set("log_ship_cycles",
                  Json::number(r.faultStats.logShipCycles));
        }
        // Tail-latency metrics exist only on open-loop serve cells —
        // a closed-loop run has no queues, so no request ever waits.
        if (r.cell.offeredLoad > 0) {
            m.set("p50_cycles", Json::number(r.run.p50Cycles));
            m.set("p99_cycles", Json::number(r.run.p99Cycles));
            m.set("p999_cycles", Json::number(r.run.p999Cycles));
            m.set("mean_queue_depth",
                  Json::number(r.run.meanQueueDepth));
            m.set("rejected_txs", Json::number(r.run.rejectedTxs));
            m.set("offered_load", Json::number(r.run.offeredLoad));
        }
        c.set("metrics", std::move(m));
        cells.push(std::move(c));
    }
    doc.set("cells", std::move(cells));
    return doc;
}

} // namespace ssp::sweep
