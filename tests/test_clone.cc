/**
 * @file
 * Clone tests: a cloned experiment, serve calibration or cluster runs
 * bit for bit like a fresh build, passes verify() and crash recovery,
 * and leaves its original untouched — also once the original is gone,
 * so a clone holds nothing that points into it — a clone widened to
 * more cores runs like a fresh build at that size, and runSweep, which
 * runs the cells of a setup group on (widened) clones of one built
 * state, reports exactly what per-cell fresh runs report.
 */

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/ssp_system.hh"
#include "fault/fault_injector.hh"
#include "serve/server.hh"
#include "shard/cluster.hh"
#include "sim/driver.hh"
#include "sweep/sweep_grid.hh"
#include "sweep/sweep_runner.hh"
#include "tests/test_helpers.hh"

namespace ssp::test
{
namespace
{

/** Small key spaces keep every setup quick. */
WorkloadScale
smallScale(unsigned key_shards = 1)
{
    WorkloadScale scale;
    scale.keySpace = 256;
    scale.spsElements = 1024;
    scale.seed = 11;
    scale.keyShards = key_shards;
    return scale;
}

/**
 * A 4-core machine under @p mode, with caches and TLBs small enough
 * that setup leaves them full: the run then evicts by LRU at every
 * level, so a clone that lost any replacement state diverges.  The
 * directory's snoop filter is kept small too, so setup and the run
 * both force back-invalidations, which the hierarchy drains from the
 * directory model it holds.
 */
SspConfig
fourCoreConfig(CoherenceMode mode)
{
    SspConfig cfg = smallConfig(4);
    cfg.caches.l1 = CacheParams{"l1d", 1024, 2, 4};
    cfg.caches.l2 = CacheParams{"l2", 2 * 1024, 2, 6};
    cfg.caches.l3 = CacheParams{"l3", 8 * 1024, 4, 27};
    cfg.tlbEntries = 8;
    cfg.coherence.mode = mode;
    cfg.coherence.snoopFilterEntries = 8;
    return cfg;
}

bool
verifyAfterCrash(Experiment &exp)
{
    exp.backend->crash();
    exp.backend->recover();
    return exp.workload->verify();
}

// ---- Experiment::clone ----------------------------------------------------

using CloneParam = std::tuple<BackendKind, WorkloadKind, CoherenceMode>;

class ExperimentClone : public ::testing::TestWithParam<CloneParam>
{
};

TEST_P(ExperimentClone, RunsLikeAFreshBuildAndLeavesTheOriginalIntact)
{
    const auto [backend, workload, mode] = GetParam();
    const SspConfig cfg = fourCoreConfig(mode);
    WorkloadScale scale = smallScale(2);
    scale.keySpace = 1024; // a footprint that overflows every cache
    constexpr std::uint64_t kTxs = 120;

    Experiment fresh = buildExperiment(backend, workload, cfg, scale);
    const RunResult want = runExperiment(fresh, kTxs, 4);
    if (mode == CoherenceMode::Directory) {
        EXPECT_GT(want.backInvalidations, 0u);
    }

    Experiment original = buildExperiment(backend, workload, cfg, scale);
    {
        Experiment copy = original.clone();
        EXPECT_TRUE(runExperiment(copy, kTxs, 4) == want);
        EXPECT_TRUE(copy.workload->verify());
        EXPECT_TRUE(verifyAfterCrash(copy));
    }
    // The copy shared nothing: the original, run after it, still
    // measures what a fresh build does.
    EXPECT_TRUE(runExperiment(original, kTxs, 4) == want);
    EXPECT_TRUE(original.workload->verify());
    EXPECT_TRUE(verifyAfterCrash(original));

    // Nor does a copy read through its original: one that outlives it
    // still runs, verifies and recovers like a fresh build (a pointer
    // left behind fails here as a heap-use-after-free under ASan).
    Experiment orphan = [&] {
        const Experiment source =
            buildExperiment(backend, workload, cfg, scale);
        return source.clone();
    }();
    EXPECT_TRUE(runExperiment(orphan, kTxs, 4) == want);
    EXPECT_TRUE(orphan.workload->verify());
    EXPECT_TRUE(verifyAfterCrash(orphan));
}

INSTANTIATE_TEST_SUITE_P(
    BackendsWorkloadsCoherence, ExperimentClone,
    ::testing::Combine(
        ::testing::Values(BackendKind::Ssp, BackendKind::UndoLog,
                          BackendKind::RedoLog, BackendKind::Shadow),
        ::testing::Values(WorkloadKind::Sps, WorkloadKind::BTreeZipf,
                          WorkloadKind::HashRand),
        ::testing::Values(CoherenceMode::Broadcast,
                          CoherenceMode::Directory)),
    [](const ::testing::TestParamInfo<CloneParam> &info) {
        std::string name =
            std::string(backendKindName(std::get<0>(info.param))) + "_" +
            workloadKindName(std::get<1>(info.param)) + "_" +
            sweep::coherenceModeName(std::get<2>(info.param));
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(ExperimentClone, CloneOfAMidRunStateContinuesIdentically)
{
    // Cloning after a run, not only after setup: open sharer masks,
    // conflict logs and a partly filled journal must all carry over.
    const SspConfig cfg = fourCoreConfig(CoherenceMode::Directory);
    Experiment a = buildExperiment(BackendKind::Ssp, WorkloadKind::BTreeZipf,
                                   cfg, smallScale());
    Experiment b = buildExperiment(BackendKind::Ssp, WorkloadKind::BTreeZipf,
                                   cfg, smallScale());
    runExperiment(a, 50, 4);
    runExperiment(b, 50, 4);
    Experiment copy = a.clone();
    const RunResult want = runExperiment(b, 70, 4);
    EXPECT_TRUE(runExperiment(copy, 70, 4) == want);
    EXPECT_TRUE(runExperiment(a, 70, 4) == want);
}

// ---- serve calibration -----------------------------------------------------

TEST(ServeClone, CellsShareOneCalibration)
{
    const SspConfig cfg = fourCoreConfig(CoherenceMode::Broadcast);
    constexpr std::uint64_t kRequests = 300;
    serve::ServeParams low;
    low.offeredLoad = 0.6;
    low.seed = 5;
    serve::ServeParams high = low;
    high.offeredLoad = 1.2;

    Experiment fresh_low = buildExperiment(
        BackendKind::RedoLog, WorkloadKind::HashRand, cfg, smallScale());
    Experiment fresh_high = buildExperiment(
        BackendKind::RedoLog, WorkloadKind::HashRand, cfg, smallScale());
    const RunResult want_low =
        serve::runServeExperiment(fresh_low, kRequests, 4, low);
    const RunResult want_high =
        serve::runServeExperiment(fresh_high, kRequests, 4, high);

    Experiment original = buildExperiment(
        BackendKind::RedoLog, WorkloadKind::HashRand, cfg, smallScale());
    const serve::Calibration calib =
        serve::calibrateServe(original, kRequests, 4);
    EXPECT_EQ(calib.cores, 4u);
    {
        Experiment copy = original.clone();
        EXPECT_TRUE(serve::serveCalibrated(copy, kRequests, calib, low) ==
                    want_low);
        EXPECT_TRUE(copy.workload->verify());
    }
    EXPECT_TRUE(serve::serveCalibrated(original, kRequests, calib, high) ==
                want_high);
    EXPECT_TRUE(original.workload->verify());
}

// ---- Cluster::clone --------------------------------------------------------

struct ClusterOutcome
{
    shard::ShardRunResult run;
    fault::FaultStats faults;
};

/** A 2-machine, fault-armed, replicated run of @p cluster. */
ClusterOutcome
runFaultyCluster(shard::Cluster &cluster)
{
    fault::FaultParams fp;
    fp.ratePerMcycle = 20;
    fp.replicate = true;
    fp.seed = 77;
    fault::FaultInjector inj(cluster, fp, 78, 0.3);
    ClusterOutcome out;
    out.run = shard::runClusterExperiment(cluster, 150, 2, 0.3, 79, &inj);
    out.faults = inj.stats();
    return out;
}

void
expectSameOutcome(const ClusterOutcome &got, const ClusterOutcome &want)
{
    EXPECT_TRUE(got.run.aggregate == want.run.aggregate);
    EXPECT_TRUE(got.run.shards == want.run.shards);
    EXPECT_TRUE(got.run.tx == want.run.tx);
    EXPECT_EQ(got.run.networkMessages, want.run.networkMessages);
    EXPECT_EQ(got.run.networkCycles, want.run.networkCycles);
    EXPECT_TRUE(got.faults == want.faults);
}

TEST(ClusterClone, FaultInjectedReplicatedRunMatchesAFreshCluster)
{
    const SspConfig cfg = smallConfig(2);
    auto make = [&] {
        return shard::Cluster(BackendKind::Ssp, WorkloadKind::BTreeZipf, cfg,
                              smallScale(), 2);
    };
    shard::Cluster fresh = make();
    const ClusterOutcome want = runFaultyCluster(fresh);
    EXPECT_GT(want.faults.powerFails, 0u);
    EXPECT_GT(want.faults.logShipMessages, 0u);

    shard::Cluster original = make();
    {
        shard::Cluster copy = original.clone();
        expectSameOutcome(runFaultyCluster(copy), want);
        for (unsigned m = 0; m < copy.machines(); ++m)
            EXPECT_TRUE(copy.shard(m).workload->verify()) << m;
    }
    expectSameOutcome(runFaultyCluster(original), want);

    // A copy that outlives its original runs, verifies and recovers
    // like a fresh cluster.
    shard::Cluster orphan = [&] {
        const shard::Cluster source = make();
        return source.clone();
    }();
    expectSameOutcome(runFaultyCluster(orphan), want);
    for (unsigned m = 0; m < orphan.machines(); ++m) {
        EXPECT_TRUE(orphan.shard(m).workload->verify()) << m;
        EXPECT_TRUE(verifyAfterCrash(orphan.shard(m))) << m;
    }
}

// ---- recovery-only state ---------------------------------------------------

/**
 * Leave a transaction open on @p exp's core 0 the way a power failure
 * finds one: begun and holding a store to @p addr.  On SSP a second
 * one is cut off mid-commit, after its metadata update for @p addr's
 * line reached NVRAM and before its commit marker did.  Recovery must
 * discard both; on SSP it tells them apart from committed work only by
 * transaction ID.
 */
void
openInterruptedTxs(Experiment &exp, Addr addr)
{
    const std::uint64_t value = 0xdead;
    exp.backend->begin(0);
    exp.backend->store(0, addr, &value, sizeof(value));
    auto *ssp = dynamic_cast<SspSystem *>(exp.backend.get());
    if (ssp == nullptr)
        return;
    MemController &mc = ssp->controller();
    const SlotId sid = mc.cache().findSlot(pageOf(addr));
    ASSERT_NE(sid, kInvalidSlot);
    Bitmap64 updated;
    updated.set(lineIndexInPage(addr));
    mc.metadataUpdate(ssp->machine(), mc.beginTx(), sid, updated, 0);
    mc.journal().flush(ssp->machine().bus(), 0);
}

class CloneRecovery : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(CloneRecovery, InterruptedTxRecoversLikeAFreshBuild)
{
    // State that only recovery reads — transaction IDs above all —
    // must carry over to a clone too: a clone whose IDs restarted would
    // reuse the ID of a transaction whose commit marker is still in
    // the journal, and recovery would commit its interrupted one.
    const SspConfig cfg = smallConfig(1);
    auto build = [&] {
        Experiment exp = buildExperiment(GetParam(), WorkloadKind::Sps, cfg,
                                         smallScale());
        runExperiment(exp, 20, 1);
        return exp;
    };
    Experiment fresh = build();
    Experiment copy = [&] {
        const Experiment source = build();
        return source.clone();
    }();

    const Addr addr = kPageSize + 3 * kLineSize;
    openInterruptedTxs(fresh, addr);
    openInterruptedTxs(copy, addr);
    for (Experiment *e : {&fresh, &copy}) {
        e->backend->crash();
        e->backend->recover();
    }
    EXPECT_TRUE(fresh.workload->verify());
    EXPECT_TRUE(copy.workload->verify());
    std::uint64_t want = 0;
    std::uint64_t got = 0;
    fresh.backend->loadRaw(addr, &want, sizeof(want));
    copy.backend->loadRaw(addr, &got, sizeof(got));
    EXPECT_EQ(got, want);
    EXPECT_TRUE(runExperiment(copy, 60, 1) == runExperiment(fresh, 60, 1));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CloneRecovery,
    ::testing::Values(BackendKind::Ssp, BackendKind::UndoLog,
                      BackendKind::RedoLog, BackendKind::Shadow),
    [](const ::testing::TestParamInfo<BackendKind> &info) {
        std::string name = backendKindName(info.param);
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

// ---- Experiment::widen -----------------------------------------------------

using WidenParam = std::tuple<BackendKind, WorkloadKind>;

class WidenedClone : public ::testing::TestWithParam<WidenParam>
{
};

/** The scale64 grid's machine: broadcast, SSP cache size fixed. */
SspConfig
bigMachine(unsigned cores)
{
    return sweep::findFigure("scale64")->machine(cores);
}

TEST_P(WidenedClone, RunsLikeAFreshBuildAtItsCoreCount)
{
    const auto [backend, workload] = GetParam();
    // The partitioned scenario shards its keys per core, as in the
    // grids; setup never reads the shard count.
    auto shards = [&](unsigned cores) {
        return workload == WorkloadKind::HashRand ? cores : 1u;
    };
    auto fresh_run = [&](unsigned cores, std::uint64_t txs) {
        Experiment fresh = buildExperiment(backend, workload,
                                           bigMachine(cores),
                                           smallScale(shards(cores)));
        return runExperiment(fresh, txs, cores);
    };
    constexpr std::uint64_t kTxs = 150;

    Experiment original = buildExperiment(backend, workload, bigMachine(8),
                                          smallScale(shards(8)));
    // At 24 cores the per-core log regions are no power of two apart,
    // so a log left where the 8-core carve put it lands on another bank
    // than a fresh build's and the run's timing diverges.
    for (unsigned cores : {16u, 24u, 64u}) {
        Experiment copy = original.clone();
        copy.widen(cores, shards(cores));
        EXPECT_TRUE(runExperiment(copy, kTxs, cores) ==
                    fresh_run(cores, kTxs))
            << cores;
        EXPECT_TRUE(copy.workload->verify()) << cores;
        EXPECT_TRUE(verifyAfterCrash(copy)) << cores;
    }
    // Widening a copy leaves the original at its own size, untouched.
    EXPECT_TRUE(runExperiment(original, kTxs, 8) == fresh_run(8, kTxs));
    EXPECT_TRUE(original.workload->verify());
}

INSTANTIATE_TEST_SUITE_P(
    BackendsWorkloads, WidenedClone,
    ::testing::Combine(
        ::testing::Values(BackendKind::Ssp, BackendKind::UndoLog,
                          BackendKind::RedoLog, BackendKind::Shadow),
        ::testing::Values(WorkloadKind::Sps, WorkloadKind::BTreeZipf,
                          WorkloadKind::HashRand)),
    [](const ::testing::TestParamInfo<WidenParam> &info) {
        std::string name =
            std::string(backendKindName(std::get<0>(info.param))) + "_" +
            workloadKindName(std::get<1>(info.param));
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

// ---- runSweep setup groups ------------------------------------------------

sweep::SweepGridOptions
smallGridOptions()
{
    sweep::SweepGridOptions opts;
    opts.txs = 60;
    opts.scale = smallScale();
    return opts;
}

/** Every cell run alone: a group of one, built fresh, never cloned. */
std::vector<sweep::CellResult>
freshRuns(const std::vector<sweep::SweepCell> &cells)
{
    std::vector<sweep::CellResult> out;
    for (const sweep::SweepCell &cell : cells)
        out.push_back(sweep::runSweep({cell}, 1).at(0));
    return out;
}

void
expectSameResults(const std::vector<sweep::CellResult> &got,
                  const std::vector<sweep::CellResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const std::string label = want[i].cell.label();
        ASSERT_TRUE(want[i].ok) << label << ": " << want[i].error;
        ASSERT_TRUE(got[i].ok) << label << ": " << got[i].error;
        EXPECT_TRUE(got[i].run == want[i].run) << label;
        EXPECT_TRUE(got[i].shardRuns == want[i].shardRuns) << label;
        EXPECT_TRUE(got[i].shardTx == want[i].shardTx) << label;
        EXPECT_EQ(got[i].networkMessages, want[i].networkMessages) << label;
        EXPECT_EQ(got[i].networkCycles, want[i].networkCycles) << label;
        EXPECT_TRUE(got[i].faultStats == want[i].faultStats) << label;
    }
}

TEST(SweepGroups, QueueLoadPointsOnClonesMatchFreshRuns)
{
    sweep::SweepGridOptions opts = smallGridOptions();
    opts.coreCounts = {4};
    opts.loads = {0.3, 0.6, 0.9};
    const auto cells = sweep::buildFigureGrid("queue", opts);
    const auto want = freshRuns(cells);
    expectSameResults(sweep::runSweep(cells, 1), want);
    expectSameResults(sweep::runSweep(cells, 3), want);
}

TEST(SweepGroups, FaultRatesAndReplicationOnClonesMatchFreshRuns)
{
    sweep::SweepGridOptions opts = smallGridOptions();
    opts.machines = {2};
    const auto cells = sweep::buildFigureGrid("fault", opts);
    const auto want = freshRuns(cells);
    expectSameResults(sweep::runSweep(cells, 1), want);
    expectSameResults(sweep::runSweep(cells, 3), want);
}

TEST(SweepGroups, BroadcastPlanesOnWidenedClonesMatchFreshRuns)
{
    // Each broadcast (backend, workload) plane sets up once, at 16
    // cores, and its 64-core cell runs on the state widened to 64; the
    // directory cells set up per core count.  The reference builds
    // every cell on its own, outside runSweep.
    sweep::SweepGridOptions opts = smallGridOptions();
    opts.coreCounts = {16, 64};
    opts.workloads = {WorkloadKind::BTreeZipf, WorkloadKind::HashRand};
    const auto cells = sweep::buildFigureGrid("scale256", opts);
    std::vector<sweep::CellResult> want;
    for (const sweep::SweepCell &cell : cells) {
        Experiment exp = buildExperiment(cell.backend, cell.workload,
                                         cell.config(), cell.scale);
        sweep::CellResult r;
        r.cell = cell;
        r.run = runExperiment(exp, cell.txs, cell.cores);
        r.ok = true;
        want.push_back(std::move(r));
    }
    expectSameResults(sweep::runSweep(cells, 1), want);
    const auto results = sweep::runSweep(cells, 3);
    expectSameResults(results, want);
    // The 64-core cell, last of its group, set the state up (at 16
    // cores) and widened it in place; the 16-core cell ran on a clone.
    for (const sweep::CellResult &r : results) {
        const bool broadcast =
            r.cell.coherenceMode == CoherenceMode::Broadcast;
        EXPECT_EQ(r.hostMillisSetup == 0.0, broadcast && r.cell.cores == 16)
            << r.cell.label();
        EXPECT_EQ(r.hostMillisClone > 0.0, broadcast) << r.cell.label();
    }
}

TEST(SweepGroups, TimedPhasesShowWhichCellBuiltAndWhichCloned)
{
    sweep::SweepGridOptions opts = smallGridOptions();
    opts.coreCounts = {4};
    opts.loads = {0.3, 0.6, 0.9};
    opts.backends = {BackendKind::Ssp};
    opts.workloads = {WorkloadKind::Sps};
    const auto cells = sweep::buildFigureGrid("queue", opts);
    ASSERT_EQ(cells.size(), 3u);
    const auto results = sweep::runSweep(cells, 2);
    // One group: the last cell built and set up the state (its
    // calibration counts as setup) and ran on it; the others ran on
    // clones of it.
    EXPECT_GT(results[2].hostMillisBuild, 0.0);
    EXPECT_GT(results[2].hostMillisSetup, 0.0);
    EXPECT_EQ(results[2].hostMillisClone, 0.0);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(results[i].hostMillisBuild, 0.0) << i;
        EXPECT_EQ(results[i].hostMillisSetup, 0.0) << i;
        EXPECT_GT(results[i].hostMillisClone, 0.0) << i;
    }
    for (const sweep::CellResult &r : results) {
        EXPECT_GT(r.hostMillisRun, 0.0);
        EXPECT_GE(r.hostMillis, r.hostMillisBuild + r.hostMillisSetup +
                                    r.hostMillisClone + r.hostMillisRun);
    }
    const Json timed = sweep::sweepReport("queue", results, true);
    for (const char *field : {"host_ms_build", "host_ms_setup",
                              "host_ms_clone", "host_ms_run"})
        EXPECT_TRUE(timed["cells"].at(0).has(field)) << field;
    EXPECT_FALSE(sweep::sweepReport("queue", results)["cells"].at(0).has(
        "host_ms_clone"));
}

TEST(SweepGroups, AFailedBuildFailsEveryCellOfItsGroup)
{
    sweep::SweepCell cell;
    cell.figure = "fig5";
    cell.backend = BackendKind::Ssp;
    cell.workload = WorkloadKind::Sps;
    cell.base = smallConfig();
    cell.txs = 10;
    // An SPS array far larger than the 2 MiB heap: setup must fail.
    cell.scale.spsElements = std::uint64_t{1} << 24;
    const auto results = sweep::runSweep({cell, cell, cell}, 2);
    ASSERT_EQ(results.size(), 3u);
    for (const sweep::CellResult &r : results) {
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error, results[0].error);
        EXPECT_FALSE(r.error.empty());
    }
}

// ---- lazily copied cache arrays --------------------------------------------

TEST(CacheClone, CopyHasTheSameLinesAndLruOrder)
{
    // 8 MiB, 16 ways: its arrays are mmapped, and only the chunks a
    // fill touched are copied.  Lines a set count apart share a set, so
    // 24 of them overflow its 16 ways and evict by LRU.
    const CacheParams params{"l3", 8 * 1024 * 1024, 16, 27};
    const std::uint64_t sets = params.sizeBytes / kLineSize / params.ways;
    auto line = [&](std::uint64_t set, std::uint64_t way) {
        return (set * 37 % sets + way * sets) * kLineSize;
    };
    Cache cache(params);
    for (std::uint64_t set = 0; set < 64; ++set) {
        for (std::uint64_t way = 0; way < 24; ++way)
            cache.access(line(set, way), way % 3 == 0);
    }
    Cache copy(cache);
    EXPECT_EQ(copy.validLines(), cache.validLines());
    EXPECT_EQ(copy.hits(), cache.hits());
    EXPECT_EQ(copy.misses(), cache.misses());
    EXPECT_EQ(copy.evictions(), cache.evictions());
    // The same follow-up traffic hits, misses and evicts the same
    // victims in both.
    for (std::uint64_t i = 0; i < 4096; ++i) {
        const Addr a = line(i * 7 % 64, i * 13 % 40);
        const CacheAccessResult x = cache.access(a, true);
        const CacheAccessResult y = copy.access(a, true);
        ASSERT_EQ(x.hit, y.hit) << i;
        ASSERT_EQ(x.writeback, y.writeback) << i;
        ASSERT_EQ(x.victimAddr, y.victimAddr) << i;
    }
    EXPECT_GT(copy.evictions(), 64u * 8);
    copy.invalidateAll();
    EXPECT_EQ(copy.validLines(), 0u);
    EXPECT_GT(cache.validLines(), 0u);
}

TEST(CacheClone, ADeadCacheHandsBackAllZeroArrays)
{
    // A dead cache zeroes what it filled and recycles its arrays; the
    // next cache of the size this thread builds starts empty on them.
    const CacheParams params{"l3", 8 * 1024 * 1024, 16, 27};
    {
        Cache cache(params);
        for (Addr a = 0; a < 50000; ++a)
            cache.access(a * 4099 * kLineSize, a % 2 == 0);
        EXPECT_GT(cache.validLines(), 0u);
    }
    Cache fresh(params);
    EXPECT_EQ(fresh.validLines(), 0u);
    EXPECT_FALSE(fresh.access(0, false).hit);
}

} // namespace
} // namespace ssp::test
