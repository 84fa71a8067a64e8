/**
 * @file
 * The figure table: one FigureSpec row per grid, holding its machine,
 * default transactions, swept axes, cell generator and, for the paper's
 * figures and tables, the renderer of the paper's table; plus
 * renderSweepTable, which picks that table or the generic one.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "sweep/sweep_runner.hh"

namespace ssp::sweep
{

SspConfig
paperConfig(unsigned cores)
{
    SspConfig cfg;
    cfg.numCores = cores;
    cfg.heapPages = 1 << 15; // 128 MiB persistent heap
    cfg.logPages = 8192;
    // Paper section 5.1: 0.3% of the 12 MiB L3 caches about 1K SSP
    // cache entries.
    cfg.sspCacheSlots = 1024;
    cfg.shadowPoolPages = cfg.sspCacheSlots + 1024;
    return cfg;
}

WorkloadScale
paperScale()
{
    WorkloadScale scale;
    // Deep enough trees that per-transaction write sets approach the
    // paper's Table 3 characterization.
    scale.keySpace = 32768;
    scale.spsElements = 1 << 16;
    scale.seed = 42;
    return scale;
}

namespace
{

/** Small machine for the smoke, scale, shard and fault grids (mirrors
 *  the test config); the same at every core count. */
SspConfig
smokeConfig(unsigned)
{
    SspConfig cfg;
    cfg.numCores = 1;
    cfg.heapPages = 512;
    cfg.shadowPoolPages = 600;
    cfg.journalPages = 64;
    cfg.logPages = 512;
    cfg.dramPages = 64;
    cfg.checkpointThresholdBytes = 16 * 1024;
    return cfg;
}

/**
 * The "big" machine: a 64-core-class server the 16-64-core scale64
 * grid runs on.  Everything the core count stresses is sized up from
 * the paper's Table 2 desktop part: a 96 MiB shared L3 (with the
 * longer lookup of a larger NUCA array), an SSP cache provisioned for
 * 64 cores x 64 TLB entries with slack, a journal/log area that fits
 * the larger slot array's persistent lines, and a deeper shadow pool.
 * The configuration is identical at every core count so the scaling
 * axis measures cores, not machine-size side effects.
 */
SspConfig
bigConfig(unsigned cores)
{
    SspConfig cfg;
    cfg.numCores = cores;
    cfg.heapPages = 1 << 15; // 128 MiB persistent heap
    cfg.logPages = 16384;    // 64 MiB undo/redo log area
    cfg.journalPages = 1024; // fits the 8K-slot journal + headroom
    cfg.sspCacheSlots = 8192;
    cfg.shadowPoolPages = cfg.sspCacheSlots + 2048;
    cfg.dramPages = 8192;
    cfg.caches.l3 = CacheParams{"l3", 96 * 1024 * 1024, 16, 42};
    return cfg;
}

/**
 * The mesh machine: the 256-core-class part the scale256 grid runs on.
 * Scaled up from bigConfig the same way bigConfig scales the desktop
 * part: an SSP cache provisioned for 256 cores x 64 TLB entries with
 * slack, a journal that fits the larger slot array, and a deeper
 * shadow pool.  The configuration is identical at every core count and
 * under both coherence models, so those axes measure the interconnect,
 * not machine-size side effects.
 */
SspConfig
meshConfig(unsigned cores)
{
    SspConfig cfg;
    cfg.numCores = cores;
    cfg.heapPages = 1 << 15; // 128 MiB persistent heap
    // 256 MiB log area: 256 staggered per-core undo/redo regions need
    // per_core > numCores * rowBufferBytes, i.e. > 128 MiB total.
    cfg.logPages = 65536;
    cfg.journalPages = 2048; // fits the 16K-slot journal + headroom
    cfg.sspCacheSlots = 16384;
    cfg.shadowPoolPages = cfg.sspCacheSlots + 4096;
    cfg.dramPages = 8192;
    cfg.caches.l3 = CacheParams{"l3", 96 * 1024 * 1024, 16, 42};
    return cfg;
}

/** Workloads in Table 3 (paper) order, for the table3 grid. */
std::vector<WorkloadKind>
table3Order()
{
    return {WorkloadKind::RbTreeRand, WorkloadKind::BTreeRand,
            WorkloadKind::HashRand,   WorkloadKind::Sps,
            WorkloadKind::RbTreeZipf, WorkloadKind::BTreeZipf,
            WorkloadKind::HashZipf,   WorkloadKind::Memcached,
            WorkloadKind::Vacation};
}

/** Figure 8's NVRAM latency multipliers (x DRAM latency). */
constexpr double kNvramMultipliers[] = {1.0, 3.0, 5.0, 7.0, 9.0};

/** Figure 9's fixed SSP-cache access latencies, in cycles. */
constexpr Cycles kSspCacheLatencies[] = {20, 60, 100, 140, 180};

/** Cores each shard/fault-grid machine runs: the scale grid's 4-core
 *  point, so the 1-machine cells replay the checked-in scale c4 cells. */
constexpr unsigned kShardCores = 4;

/** The three paper designs every scaling grid compares. */
std::vector<BackendKind>
scaleBackends()
{
    return {BackendKind::Ssp, BackendKind::UndoLog, BackendKind::RedoLog};
}

/** Workloads whose keyed operations the scaling grids partition into
 *  per-core shards (the no-sharing scenario). */
bool
partitionedWorkload(WorkloadKind w)
{
    return w == WorkloadKind::BTreeRand || w == WorkloadKind::HashRand;
}

/** Workloads of the scale grid: shared-uniform (SPS), partitioned
 *  (-Rand, per-core key shards) and Zipf-contended (shared hotspot)
 *  scenarios.  SPS first so the (SPS, SSP) seed ordinal is 0 — the
 *  same stream as the smoke grid's only cell; RbTree-Zipf was appended
 *  (not inserted) when conflict handling landed, so every older cell
 *  keeps its pinned seed ordinal and replays its original stream. */
std::vector<WorkloadKind>
scaleWorkloads()
{
    return {WorkloadKind::Sps,       WorkloadKind::BTreeRand,
            WorkloadKind::HashRand,  WorkloadKind::BTreeZipf,
            WorkloadKind::HashZipf,  WorkloadKind::RbTreeZipf};
}

/** A cell on the row's machine at @p cores, with the grid's txs. */
SweepCell
makeCell(const FigureSpec &row, const SweepGridOptions &axes,
         BackendKind backend, WorkloadKind workload, unsigned cores = 1)
{
    SweepCell cell;
    cell.backend = backend;
    cell.workload = workload;
    cell.cores = cores;
    cell.txs = axes.txs;
    cell.base = row.machine(cores);
    return cell;
}

/**
 * Emit one cell per (workload, backend) with the seed ordinal pinned to
 * the pair's position in the plane — the pinning idiom every axis-sweep
 * grid shares: cells that differ only in the swept axis value replay
 * the identical operation stream, so the axis measures machine effects,
 * not reseeded noise.  Partitioned workloads get one key shard per
 * core; @p customize fills the axis-specific knobs.
 */
template <typename CustomizeFn>
void
emitSeedPinnedPlane(const FigureSpec &row, const SweepGridOptions &axes,
                    const std::vector<WorkloadKind> &workloads,
                    unsigned cores, CustomizeFn &&customize,
                    std::vector<SweepCell> &out)
{
    std::int64_t seed_ordinal = 0;
    for (WorkloadKind w : workloads) {
        for (BackendKind b : row.backends) {
            SweepCell cell = makeCell(row, axes, b, w, cores);
            cell.seedOrdinal = seed_ordinal++;
            if (partitionedWorkload(w) && cores > 1)
                cell.keyShards = cores;
            customize(cell);
            out.push_back(std::move(cell));
        }
    }
}

/** The row's workloads x backends at each of its fixed core counts,
 *  seeded by position (fig5, fig6, fig7, table3, table45, smoke). */
void
planeGrid(const FigureSpec &row, const SweepGridOptions &axes,
          std::vector<SweepCell> &out)
{
    for (unsigned cores : row.fixedCores) {
        for (WorkloadKind w : row.workloads) {
            for (BackendKind b : row.backends)
                out.push_back(makeCell(row, axes, b, w, cores));
        }
    }
}

/** NVRAM-latency sensitivity for RBTree-Rand (8a) and BTree-Rand (8b). */
void
fig8Grid(const FigureSpec &row, const SweepGridOptions &axes,
         std::vector<SweepCell> &out)
{
    for (WorkloadKind w : row.workloads) {
        for (double mult : kNvramMultipliers) {
            for (BackendKind b : row.backends) {
                out.push_back(makeCell(row, axes, b, w));
                out.back().nvramLatencyMultiplier = mult;
            }
        }
    }
}

/** SSP-cache latency sensitivity: one latency-independent REDO-LOG
 *  baseline per workload, then SSP across the sweep. */
void
fig9Grid(const FigureSpec &row, const SweepGridOptions &axes,
         std::vector<SweepCell> &out)
{
    for (WorkloadKind w : row.workloads)
        out.push_back(makeCell(row, axes, BackendKind::RedoLog, w));
    for (Cycles lat : kSspCacheLatencies) {
        for (WorkloadKind w : row.workloads) {
            out.push_back(makeCell(row, axes, BackendKind::Ssp, w));
            out.back().sspCacheFixedLatency = lat;
        }
    }
}

/** Channel scaling across the NVRAM channel counts.  Page-granular
 *  interleaving keeps each page's row locality inside one channel. */
void
chanGrid(const FigureSpec &row, const SweepGridOptions &axes,
         std::vector<SweepCell> &out)
{
    for (unsigned channels : axes.channels) {
        emitSeedPinnedPlane(
            row, axes, row.workloads, 1,
            [&](SweepCell &cell) {
                cell.base.interleaveGranularity = InterleaveGranularity::Page;
                cell.nvramChannels = channels;
            },
            out);
    }
}

/**
 * Core scaling on the row's machine, per core count, offered load
 * (queue) and coherence model (scale256).  On the smoke machine (scale)
 * SSP comes first so the (SPS, SSP, 1 core) cell is stream-identical to
 * the smoke cell — scripts/check.sh diffs the two to catch single-core
 * timing regressions.
 */
void
coreScalingGrid(const FigureSpec &row, const SweepGridOptions &axes,
                std::vector<SweepCell> &out)
{
    const std::vector<double> loads =
        axes.loads.empty() ? std::vector<double>{0} : axes.loads;
    const std::vector<CoherenceMode> modes =
        row.coherenceModes.empty()
            ? std::vector<CoherenceMode>{CoherenceMode::Broadcast}
            : row.coherenceModes;
    for (unsigned cores : axes.coreCounts) {
        for (double load : loads) {
            for (CoherenceMode mode : modes) {
                emitSeedPinnedPlane(
                    row, axes, row.workloads, cores,
                    [&](SweepCell &cell) {
                        cell.offeredLoad = load;
                        cell.arrival = axes.arrival;
                        cell.coherenceMode = mode;
                    },
                    out);
            }
        }
    }
}

/**
 * One cluster plane of the shard/fault grids, 4 cores per machine.
 * Seed ordinals are pinned to the (workload, backend) position in the
 * *scale* plane, not this grid's own, so every cluster cell replays the
 * scale grid's exact streams: the 1-machine shard cells are
 * cycle-identical to the checked-in BENCH_scale.json c4 cells, and the
 * rate-0 unreplicated fault cells to the shard cells (scripts/check.sh
 * diffs both).
 */
void
emitClusterPlane(const FigureSpec &row, const SweepGridOptions &axes,
                 unsigned machines, double cross_shard, double fault_rate,
                 bool replicate, std::vector<SweepCell> &out)
{
    std::vector<SweepCell> plane;
    emitSeedPinnedPlane(
        row, axes, scaleWorkloads(), kShardCores,
        [&](SweepCell &cell) {
            cell.machines = machines;
            cell.crossShardFraction = cross_shard;
            cell.faultRate = fault_rate;
            cell.replicate = replicate;
        },
        plane);
    for (SweepCell &cell : plane) {
        if (std::ranges::count(row.workloads, cell.workload) > 0)
            out.push_back(std::move(cell));
    }
}

/** Multi-machine scaling across cluster sizes and cross-shard fractions
 *  (partitionable, lightly and heavily entangled). */
void
shardGrid(const FigureSpec &row, const SweepGridOptions &axes,
          std::vector<SweepCell> &out)
{
    for (unsigned machines : axes.machines) {
        for (double cross_shard : {0.0, 0.1, 0.5}) {
            // One machine has no peers: only the frac=0 fast-path point
            // exists.
            if (machines == 1 && cross_shard > 0)
                continue;
            emitClusterPlane(row, axes, machines, cross_shard, 0, false,
                             out);
        }
    }
}

/** Fault injection across cluster sizes, fault rates and replication
 *  modes, cross-shard fraction 0.1 wherever 2PC is possible. */
void
faultGrid(const FigureSpec &row, const SweepGridOptions &axes,
          std::vector<SweepCell> &out)
{
    for (unsigned machines : axes.machines) {
        for (double rate : axes.faultRates) {
            for (bool rep : axes.replicateModes) {
                emitClusterPlane(row, axes, machines,
                                 machines > 1 ? 0.1 : 0, rate, rep, out);
            }
        }
    }
}

// ---- paper tables ----------------------------------------------------------

/** Thrown when a paper table needs a cell the grid's filters dropped. */
struct MissingCell
{
};

/** The run at these coordinates (1 core, paper knobs unless given). */
const RunResult &
runAt(const std::vector<CellResult> &results, BackendKind backend,
      WorkloadKind workload, unsigned cores = 1, double nvram_mult = 0,
      Cycles ssp_cache_latency = 0)
{
    for (const CellResult &r : results) {
        if (r.cell.backend == backend && r.cell.workload == workload &&
            r.cell.cores == cores &&
            r.cell.nvramLatencyMultiplier == nvram_mult &&
            r.cell.sspCacheFixedLatency == ssp_cache_latency) {
            return r.run;
        }
    }
    throw MissingCell{};
}

/** The UNDO-LOG, REDO-LOG and SSP runs of one workload, in that
 *  (paperBackends) order. */
std::array<const RunResult *, 3>
designRuns(const std::vector<CellResult> &results, WorkloadKind workload,
           unsigned cores = 1, double nvram_mult = 0)
{
    return {&runAt(results, BackendKind::UndoLog, workload, cores,
                   nvram_mult),
            &runAt(results, BackendKind::RedoLog, workload, cores,
                   nvram_mult),
            &runAt(results, BackendKind::Ssp, workload, cores, nvram_mult)};
}

/** paperTableHeader on the machine every cell shares, without the
 *  figure's swept knob. */
std::string
header(const std::string &title, const std::vector<CellResult> &results,
       unsigned cores = 1)
{
    SweepCell machine = results.front().cell;
    machine.cores = cores;
    machine.nvramLatencyMultiplier = 0;
    return paperTableHeader(title, machine.config());
}

std::string
fig5Table(const std::vector<CellResult> &results)
{
    const std::tuple<unsigned, const char *, const char *> parts[] = {
        {1, "a", "by 1.9x and REDO-LOG by 1.3x on average (single thread)"},
        {4, "b", "by 2.4x and REDO-LOG by 1.4x on average (four threads)"},
    };
    std::string out;
    for (const auto &[cores, part, note] : parts) {
        TextTable table({"workload", "UNDO-LOG", "REDO-LOG", "SSP",
                         "SSP/UNDO", "SSP/REDO"});
        double geo_undo = 1.0, geo_redo = 1.0;
        unsigned n = 0;
        for (WorkloadKind w : microbenchmarks()) {
            const auto [undo, redo, ssp] = designRuns(results, w, cores);
            const double base = undo->tps();
            table.addRow({workloadKindName(w), fmtDouble(1.0),
                          fmtDouble(redo->tps() / base),
                          fmtDouble(ssp->tps() / base),
                          fmtDouble(ssp->tps() / base),
                          fmtDouble(ssp->tps() / redo->tps())});
            geo_undo *= ssp->tps() / base;
            geo_redo *= ssp->tps() / redo->tps();
            ++n;
        }
        table.addRow({"geomean", "1.00", "-", "-",
                      fmtDouble(std::pow(geo_undo, 1.0 / n)),
                      fmtDouble(std::pow(geo_redo, 1.0 / n))});
        out += header(std::string("Figure 5") + part +
                          ": TPS normalized to UNDO-LOG (" +
                          std::to_string(cores) +
                          " thread(s), higher is better)",
                      results, cores) +
               table.render() + "\n" +
               paperNote(std::string("Fig 5") + part +
                         ": SSP outperforms UNDO-LOG " + note);
    }
    return out;
}

std::string
fig6Table(const std::vector<CellResult> &results)
{
    TextTable table({"workload", "UNDO-LOG", "REDO-LOG", "SSP", "UNDO/SSP",
                     "REDO/SSP"});
    double sum_undo_over_ssp = 0, sum_redo_over_ssp = 0;
    unsigned n = 0;
    for (WorkloadKind w : microbenchmarks()) {
        const auto [undo_run, redo_run, ssp_run] = designRuns(results, w);
        const auto undo = static_cast<double>(undo_run->loggingWrites);
        const auto redo = static_cast<double>(redo_run->loggingWrites);
        const auto ssp = static_cast<double>(ssp_run->loggingWrites);
        table.addRow({workloadKindName(w), fmtDouble(undo / undo),
                      fmtDouble(redo / undo), fmtDouble(ssp / undo),
                      ssp > 0 ? fmtDouble(undo / ssp, 1) : "inf",
                      ssp > 0 ? fmtDouble(redo / ssp, 1) : "inf"});
        if (ssp > 0) {
            sum_undo_over_ssp += undo / ssp;
            sum_redo_over_ssp += redo / ssp;
            ++n;
        }
    }
    if (n > 0) {
        table.addRow({"average", "-", "-", "-",
                      fmtDouble(sum_undo_over_ssp / n, 1),
                      fmtDouble(sum_redo_over_ssp / n, 1)});
    }
    return header("Figure 6: logging writes normalized to UNDO-LOG "
                  "(lower is better)",
                  results) +
           table.render() + "\n" +
           paperNote("SSP decreases logging write traffic by 7.6x vs "
                     "UNDO-LOG and 4.7x vs REDO-LOG on average; BTree-Rand "
                     "nearly eliminates logging writes");
}

std::string
fig7Table(const std::vector<CellResult> &results)
{
    TextTable table7a({"workload", "UNDO-LOG", "REDO-LOG", "SSP",
                       "saved vs UNDO", "saved vs REDO"});
    TextTable table7b({"workload", "data", "journaling", "consolidation",
                       "checkpointing"});
    double sum_saved_undo = 0, sum_saved_redo = 0;
    unsigned n = 0;
    for (WorkloadKind w : microbenchmarks()) {
        const auto [undo_run, redo_run, ssp_run] = designRuns(results, w);
        const auto undo = static_cast<double>(undo_run->nvramWrites);
        const auto redo = static_cast<double>(redo_run->nvramWrites);
        const auto ssp = static_cast<double>(ssp_run->nvramWrites);
        const double saved_undo = 1.0 - ssp / undo;
        const double saved_redo = 1.0 - ssp / redo;
        table7a.addRow({workloadKindName(w), fmtDouble(undo / undo),
                        fmtDouble(redo / undo), fmtDouble(ssp / undo),
                        fmtDouble(saved_undo * 100, 0) + "%",
                        fmtDouble(saved_redo * 100, 0) + "%"});
        sum_saved_undo += saved_undo;
        sum_saved_redo += saved_redo;
        ++n;
        auto pct = [&](std::uint64_t v) {
            return fmtDouble(100.0 * static_cast<double>(v) / ssp, 1);
        };
        table7b.addRow({workloadKindName(w), pct(ssp_run->dataWrites),
                        pct(ssp_run->journalWrites),
                        pct(ssp_run->consolidationWrites),
                        pct(ssp_run->checkpointWrites)});
    }
    table7a.addRow({"average", "-", "-", "-",
                    fmtDouble(sum_saved_undo / n * 100, 0) + "%",
                    fmtDouble(sum_saved_redo / n * 100, 0) + "%"});
    return header("Figure 7a: total NVRAM writes normalized to UNDO-LOG "
                  "(lower is better)",
                  results) +
           table7a.render() + "\n" +
           paperNote("SSP saves 45% vs UNDO-LOG and 28% vs REDO-LOG on "
                     "average; zipfian workloads save more (56%/42%) than "
                     "random ones (43%/23%)") +
           banner("Figure 7b: breakdown of NVRAM writes for SSP (%)") +
           table7b.render() + "\n" +
           paperNote("consolidation writes are below data writes for all "
                     "workloads except SPS, and are negligible under "
                     "zipfian access patterns");
}

std::string
fig8Table(const std::vector<CellResult> &results)
{
    std::string out = header("Figure 8: sensitivity to NVRAM latency "
                             "(x-axis: NVRAM latency as a multiple of DRAM "
                             "latency)",
                             results);
    const std::pair<WorkloadKind, const char *> parts[] = {
        {WorkloadKind::RbTreeRand, "a"}, {WorkloadKind::BTreeRand, "b"}};
    for (const auto &[w, part] : parts) {
        TextTable table({"latency", "UNDO-LOG", "REDO-LOG", "SSP",
                         "SSP/REDO"});
        for (double mult : kNvramMultipliers) {
            const auto [undo, redo, ssp] = designRuns(results, w, 1, mult);
            table.addRow({std::string("x") + fmtDouble(mult, 0),
                          fmtDouble(undo->tps() / 1000.0, 1),
                          fmtDouble(redo->tps() / 1000.0, 1),
                          fmtDouble(ssp->tps() / 1000.0, 1),
                          fmtDouble(ssp->tps() / redo->tps())});
        }
        out += banner(std::string("Figure 8") + part + ": " +
                      workloadKindName(w) +
                      " TPS (K) vs NVRAM latency multiplier") +
               table.render() + "\n";
    }
    return out + paperNote("the SSP/REDO gap widens with NVRAM latency "
                           "(1.1x -> 1.8x for BTree); at x1 REDO-LOG can "
                           "overtake SSP on RBTree by ~8% because "
                           "persistence is nearly free");
}

std::string
fig9Table(const std::vector<CellResult> &results)
{
    std::vector<std::string> columns{"latency"};
    for (WorkloadKind w : microbenchmarks())
        columns.push_back(workloadKindName(w));
    TextTable table(std::move(columns));
    for (Cycles lat : kSspCacheLatencies) {
        std::vector<std::string> row{std::to_string(lat)};
        for (WorkloadKind w : microbenchmarks()) {
            // REDO-LOG is latency-independent: one baseline per workload.
            row.push_back(fmtDouble(
                runAt(results, BackendKind::Ssp, w, 1, 0, lat).tps() /
                runAt(results, BackendKind::RedoLog, w).tps()));
        }
        table.addRow(std::move(row));
    }
    return header("Figure 9: SSP speedup over REDO-LOG vs SSP-cache access "
                  "latency (cycles)",
                  results) +
           table.render() + "\n" +
           paperNote("most workloads degrade only moderately and linearly "
                     "with SSP-cache latency; SPS and Hash-Rand are the "
                     "most sensitive (poor locality -> frequent TLB misses "
                     "-> frequent SSP-cache accesses); zipfian workloads "
                     "are less sensitive than random ones");
}

std::string
table3Table(const std::vector<CellResult> &results)
{
    TextTable table({"workload", "avg lines", "avg pages", "max pages",
                     "paper (l/p/max)"});
    // Paper values, in table3Order().
    const char *paper[] = {"12/3/13", "10/6/21", "3/3/4", "2/2/2", "5/2/6",
                           "6/4/15",  "3/3/4",   "3/2/35", "4/3/9"};
    unsigned i = 0;
    bool fallback_needed = false;
    for (WorkloadKind w : table3Order()) {
        const RunResult &res = runAt(results, BackendKind::Ssp, w);
        table.addRow({workloadKindName(w), fmtDouble(res.avgLinesPerTx, 1),
                      fmtDouble(res.avgPagesPerTx, 1),
                      std::to_string(res.maxPagesPerTx), paper[i++]});
        // Past the 64-entry write-set buffer SSP needs its fall-back path.
        if (res.maxPagesPerTx > 64)
            fallback_needed = true;
    }
    return header("Table 3: write-set size (avg lines / avg pages / max "
                  "pages per transaction)",
                  results) +
           table.render() + "\n" +
           "write-set buffer sufficient for all workloads: " +
           (fallback_needed ? "NO" : "yes") + "\n" +
           paperNote("none of the evaluated applications requires the "
                     "unbounded fall-back path");
}

std::string
table45Table(const std::vector<CellResult> &results)
{
    TextTable table4({"workload", "speedup vs UNDO-LOG",
                      "speedup vs REDO-LOG", "paper (undo/redo)"});
    TextTable table5({"workload", "write saving vs UNDO-LOG",
                      "write saving vs REDO-LOG", "paper (undo/redo)"});
    const char *paper4[] = {"75% / 35%", "27% / 13%"};
    const char *paper5[] = {"49% / 46%", "38% / 17%"};
    unsigned i = 0;
    for (WorkloadKind w : realWorkloads()) {
        // "Four clients" in the paper: four cores.
        const auto [undo, redo, ssp] = designRuns(results, w, 4);
        auto pct = [](double v) { return fmtDouble(v * 100, 0) + "%"; };
        auto writes = [](const RunResult *r) {
            return static_cast<double>(r->nvramWrites);
        };
        table4.addRow({workloadKindName(w),
                       pct(ssp->tps() / undo->tps() - 1.0),
                       pct(ssp->tps() / redo->tps() - 1.0), paper4[i]});
        table5.addRow({workloadKindName(w),
                       pct(1.0 - writes(ssp) / writes(undo)),
                       pct(1.0 - writes(ssp) / writes(redo)), paper5[i]});
        ++i;
    }
    return header("Tables 4 & 5: real workloads (4 clients)", results, 4) +
           "Table 4: throughput improvement of SSP\n" + table4.render() +
           "\nTable 5: NVRAM write-traffic saving of SSP\n" +
           table5.render() + "\n" +
           paperNote("SSP saves 86%/82% of logging writes vs UNDO/REDO on "
                     "the real workloads; Vacation gains less because "
                     "volatile execution dominates its runtime");
}

} // namespace

std::string
paperTableHeader(const std::string &title, const SspConfig &cfg)
{
    const MemSystemParams ms = cfg.memSystem();
    char line[512];
    std::snprintf(line, sizeof(line),
                  "machine: %u core(s), 3.7 GHz | L1 32KiB/L2 256KiB/L3 "
                  "12MiB | DTLB %u | NVRAM (%s) read/write %llu/%llu "
                  "cycles x%u ch | DRAM %llu/%llu cycles x%u ch | %s "
                  "interleave\n\n",
                  cfg.numCores, cfg.tlbEntries, ms.nvram.name.c_str(),
                  static_cast<unsigned long long>(ms.nvram.readLatency),
                  static_cast<unsigned long long>(ms.nvram.writeLatency),
                  ms.nvramChannels,
                  static_cast<unsigned long long>(ms.dram.readLatency),
                  static_cast<unsigned long long>(ms.dram.writeLatency),
                  ms.dramChannels,
                  interleaveGranularityName(ms.interleave));
    return banner(title) + line;
}

std::string
paperNote(const std::string &note)
{
    return "paper reference: " + note + "\n\n";
}

const std::vector<FigureSpec> &
figureTable()
{
    // The three sharing scenarios of the queue, scale256, shard and
    // fault grids: shared-uniform (SPS), Zipf-contended (BTree) and
    // partitioned (Hash-Rand, per-core key shards).
    const std::vector<WorkloadKind> scenarios = {
        WorkloadKind::Sps, WorkloadKind::BTreeZipf, WorkloadKind::HashRand};
    // The scale grid shares the smoke machine and transaction budget so
    // its single-core cells stay comparable to the smoke cell, and the
    // shard/fault grids share both so their 1-machine cells stay
    // cycle-identical to the scale grid's 4-core cells.  scale64 runs
    // 2000 transactions, which keeps the 126-cell grid affordable while
    // leaving each multi-core cell long enough to time; queue serves
    // 2000 open-loop requests per cell, enough samples for an exact-rank
    // p999; scale256 doubles every cell (broadcast x directory), and
    // 1000 transactions still give the contended cells thousands of
    // coherence events.
    static const std::vector<FigureSpec> rows = {
        {.name = "fig5", .machine = paperConfig,
         .workloads = microbenchmarks(), .backends = paperBackends(),
         .fixedCores = {1, 4}, .generate = planeGrid, .paperTable = fig5Table},
        // fig6 and fig7 share their runs: the report carries every
        // write category.
        {.name = "fig6", .machine = paperConfig,
         .workloads = microbenchmarks(), .backends = paperBackends(),
         .generate = planeGrid, .paperTable = fig6Table},
        {.name = "fig7", .machine = paperConfig,
         .workloads = microbenchmarks(), .backends = paperBackends(),
         .generate = planeGrid, .paperTable = fig7Table},
        {.name = "fig8", .machine = paperConfig,
         .workloads = {WorkloadKind::RbTreeRand, WorkloadKind::BTreeRand},
         .backends = paperBackends(), .generate = fig8Grid,
         .paperTable = fig8Table},
        {.name = "fig9", .machine = paperConfig,
         .workloads = microbenchmarks(), .generate = fig9Grid,
         .paperTable = fig9Table},
        {.name = "table3", .machine = paperConfig, .workloads = table3Order(),
         .backends = {BackendKind::Ssp}, .generate = planeGrid,
         .paperTable = table3Table},
        // "Four clients" in the paper: four cores.
        {.name = "table45", .machine = paperConfig,
         .workloads = realWorkloads(), .backends = paperBackends(),
         .fixedCores = {4}, .generate = planeGrid, .paperTable = table45Table},
        {.name = "chan", .machine = paperConfig,
         .workloads = microbenchmarks(), .backends = paperBackends(),
         .channels = {1, 2, 4, 8}, .generate = chanGrid},
        {.name = "scale", .defaultTxs = 400, .machine = smokeConfig,
         .smallMachine = true, .workloads = scaleWorkloads(),
         .backends = scaleBackends(), .cores = {1, 2, 4, 8},
         .generate = coreScalingGrid},
        {.name = "scale64", .defaultTxs = 2000, .machine = bigConfig,
         .workloads = scaleWorkloads(), .backends = scaleBackends(),
         .cores = {1, 2, 4, 8, 16, 32, 64}, .perCoreMetricsAlways = true,
         .generate = coreScalingGrid},
        // The scale64 core axis decimated to keep the doubled grid
        // affordable, extended to the mesh machine's full 256.
        {.name = "scale256", .defaultTxs = 1000, .machine = meshConfig,
         .maxCores = kMaxCores, .workloads = scenarios,
         .backends = scaleBackends(), .cores = {1, 4, 16, 64, 128, 256},
         .coherenceModes = {CoherenceMode::Broadcast,
                            CoherenceMode::Directory},
         .perCoreMetricsAlways = true, .generate = coreScalingGrid},
        // Loads from comfortable to past saturation, as factors of the
        // measured closed-loop capacity.
        {.name = "queue", .defaultTxs = 2000, .machine = bigConfig,
         .workloads = scenarios, .backends = scaleBackends(), .cores = {4, 16},
         .loads = {0.3, 0.6, 0.9, 1.2}, .generate = coreScalingGrid},
        {.name = "shard", .defaultTxs = 400, .machine = smokeConfig,
         .smallMachine = true, .workloads = scenarios,
         .backends = scaleBackends(), .machines = {1, 2, 4, 8},
         .generate = shardGrid},
        // Fewer machines than shard: every fault axis doubles the cells.
        // Rates: armed-but-quiet, rare failures, and a torture regime of
        // roughly one failure per 50 kcycles per machine.
        {.name = "fault", .defaultTxs = 400, .machine = smokeConfig,
         .smallMachine = true, .workloads = scenarios,
         .backends = scaleBackends(), .machines = {1, 2, 4},
         .faultRates = {0, 5, 20}, .replicateModes = {false, true},
         .generate = faultGrid},
        // One tiny CI cell proving the whole pipeline end to end.
        {.name = "smoke", .defaultTxs = 400, .machine = smokeConfig,
         .smallMachine = true, .workloads = {WorkloadKind::Sps},
         .backends = {BackendKind::Ssp}, .generate = planeGrid},
    };
    return rows;
}

std::string
renderSweepTable(const std::string &figure,
                 const std::vector<CellResult> &results)
{
    const FigureSpec *row = findFigure(figure);
    const bool all_ok =
        !results.empty() && std::ranges::all_of(results, &CellResult::ok);
    if (row != nullptr && row->paperTable != nullptr && all_ok) {
        try {
            return row->paperTable(results);
        } catch (const MissingCell &) {
            // A filtered grid: only the per-cell table fits.
        }
    }
    TextTable table({"cell", "tps", "nvram writes", "logging writes",
                     "avg lines/tx"});
    for (const CellResult &r : results) {
        if (!r.ok) {
            table.addRow({r.cell.label(), "FAILED: " + r.error, "-", "-",
                          "-"});
            continue;
        }
        table.addRow({r.cell.label(), fmtDouble(r.run.tps(), 0),
                      std::to_string(r.run.nvramWrites),
                      std::to_string(r.run.loggingWrites),
                      fmtDouble(r.run.avgLinesPerTx, 1)});
    }
    return table.render() + "\n";
}

} // namespace ssp::sweep
