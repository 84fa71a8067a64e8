/**
 * @file
 * Unit tests for the simulation layer: configuration layout math,
 * factories, the experiment builder, run metrics, and report
 * formatting.
 */

#include <gtest/gtest.h>

#include "core/config.hh"
#include "sim/driver.hh"
#include "sim/report.hh"
#include "sim/system_builder.hh"
#include "tests/test_helpers.hh"

using namespace ssp;
using namespace ssp::test;

namespace
{

TEST(Config, LayoutIsDisjointAndOrdered)
{
    SspConfig cfg;
    EXPECT_EQ(cfg.shadowPoolBase(), cfg.heapPages);
    EXPECT_EQ(cfg.journalBase(),
              pageBase(cfg.heapPages + cfg.shadowPoolPages));
    EXPECT_EQ(cfg.logBase(), cfg.journalBase() + cfg.journalBytes());
    EXPECT_EQ(cfg.nvramPages(), cfg.heapPages + cfg.shadowPoolPages +
                                    cfg.journalPages + cfg.logPages);
    // Journal and log regions do not overlap.
    EXPECT_GE(cfg.logBase(), cfg.journalBase() + cfg.journalBytes());
}

TEST(Config, EffectiveSlotsFollowPaperFormula)
{
    SspConfig cfg;
    cfg.numCores = 4;
    cfg.tlbEntries = 64;
    cfg.sspCacheOverprovision = 32;
    EXPECT_EQ(cfg.effectiveSspSlots(), 4u * 64 + 32);
    cfg.sspCacheSlots = 100; // explicit override wins
    EXPECT_EQ(cfg.effectiveSspSlots(), 100u);
}

TEST(Config, NvramLatencyMultiplierAppliesToBoth)
{
    SspConfig cfg;
    cfg.nvramLatencyMultiplier = 3.0;
    const MemTimingParams p = cfg.effectiveNvram();
    EXPECT_EQ(p.readLatency, static_cast<Cycles>(185 * 3));
    EXPECT_EQ(p.writeLatency, static_cast<Cycles>(185 * 3));
    cfg.nvramLatencyMultiplier = 0;
    EXPECT_EQ(cfg.effectiveNvram().writeLatency, nsToCycles(200));
}

TEST(Config, NsToCycles)
{
    EXPECT_EQ(nsToCycles(50), 185u);
    EXPECT_EQ(nsToCycles(200), 740u);
}

TEST(Factories, BackendNamesRoundTrip)
{
    for (BackendKind kind :
         {BackendKind::Ssp, BackendKind::UndoLog, BackendKind::RedoLog,
          BackendKind::Shadow}) {
        EXPECT_EQ(parseBackendKind(backendKindName(kind)), kind);
    }
    EXPECT_EQ(parseBackendKind("undo"), BackendKind::UndoLog);
    EXPECT_THROW(parseBackendKind("bogus"), std::runtime_error);
}

TEST(Factories, WorkloadNamesRoundTrip)
{
    std::vector<WorkloadKind> all = microbenchmarks();
    for (WorkloadKind w : realWorkloads())
        all.push_back(w);
    EXPECT_EQ(all.size(), 9u);
    for (WorkloadKind w : all)
        EXPECT_EQ(parseWorkloadKind(workloadKindName(w)), w);
    EXPECT_THROW(parseWorkloadKind("nope"), std::runtime_error);
}

TEST(Factories, PaperBackendsInPlotOrder)
{
    auto order = paperBackends();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], BackendKind::UndoLog);
    EXPECT_EQ(order[1], BackendKind::RedoLog);
    EXPECT_EQ(order[2], BackendKind::Ssp);
}

TEST(Driver, MetricsAreDeltasOverSetup)
{
    SspConfig cfg = smallConfig();
    cfg.heapPages = 2048;
    cfg.shadowPoolPages = 2048;
    WorkloadScale scale;
    scale.keySpace = 128;
    auto exp = buildExperiment(BackendKind::Ssp, WorkloadKind::HashRand,
                               cfg, scale);
    // Setup already committed transactions and wrote NVRAM...
    const RunBaseline setup = captureRunBaseline(exp);
    EXPECT_GT(setup.commits, 0u);
    EXPECT_GT(setup.nvramWrites, 0u);
    // ...but the run result reports only the measured phase.
    RunResult res = runExperiment(exp, 50, 1);
    EXPECT_EQ(res.committedTxs, 50u);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.nvramWrites, 0u);
    EXPECT_LT(res.nvramWrites, setup.nvramWrites);
}

TEST(Driver, TpsMatchesCyclesAndFrequency)
{
    RunResult res;
    res.committedTxs = 1000;
    res.cycles = static_cast<Cycles>(kCoreGHz * 1e9); // one second
    EXPECT_NEAR(res.tps(), 1000.0, 1e-6);
    res.cycles = 0;
    EXPECT_EQ(res.tps(), 0.0);
}

TEST(Driver, WritesPerTx)
{
    RunResult res;
    res.committedTxs = 4;
    res.nvramWrites = 10;
    EXPECT_DOUBLE_EQ(res.writesPerTx(), 2.5);
    res.committedTxs = 0;
    EXPECT_EQ(res.writesPerTx(), 0.0);
}

TEST(Report, TableAlignsColumns)
{
    TextTable table({"a", "workload"});
    table.addRow({"x", "BTree"});
    table.addRow({"longer", "y"});
    std::string out = table.render();
    // Header, separator, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    EXPECT_NE(out.find("workload"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(Report, RowWidthMismatchPanics)
{
    TextTable table({"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), std::logic_error);
}

TEST(Report, Formatting)
{
    EXPECT_EQ(fmtDouble(1.2345, 2), "1.23");
    EXPECT_EQ(fmtDouble(2.0, 0), "2");
    EXPECT_EQ(fmtNormalized(3.0, 2.0, 2), "1.50");
    EXPECT_EQ(fmtNormalized(3.0, 0.0), "n/a");
    EXPECT_NE(banner("hi").find("= hi ="), std::string::npos);
}

TEST(Builder, HeapGuardPageStaysUnmapped)
{
    SspConfig cfg = smallConfig();
    cfg.heapPages = 2048;
    cfg.shadowPoolPages = 2048;
    WorkloadScale scale;
    scale.keySpace = 64;
    auto exp = buildExperiment(BackendKind::Ssp, WorkloadKind::HashRand,
                               cfg, scale);
    // The allocator starts at page 1; address 0 is the null guard.
    EXPECT_GE(exp.alloc->base(), kPageSize);
}

TEST(Builder, WorksForEveryBackend)
{
    SspConfig cfg = smallConfig();
    cfg.heapPages = 2048;
    cfg.shadowPoolPages = 2048;
    WorkloadScale scale;
    scale.keySpace = 64;
    for (BackendKind kind :
         {BackendKind::Ssp, BackendKind::UndoLog, BackendKind::RedoLog,
          BackendKind::Shadow}) {
        auto exp =
            buildExperiment(kind, WorkloadKind::Sps, cfg, scale);
        EXPECT_TRUE(exp.workload->verify()) << backendKindName(kind);
    }
}

TEST(Machine, SyncClocksAligns)
{
    Machine m(smallConfig(4));
    m.clock(0) = 100;
    m.clock(2) = 500;
    EXPECT_EQ(m.maxClock(), 500u);
    m.syncClocks();
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(m.clock(c), 500u);
}

TEST(Machine, PowerFailClearsVolatileState)
{
    Machine m(smallConfig(1));
    m.caches().write(0, 0x1000, 0);
    TlbEntry e;
    e.valid = true;
    e.vpn = 3;
    m.tlb(0).insert(e);
    m.powerFail();
    EXPECT_FALSE(m.caches().isCached(0, 0x1000));
    EXPECT_EQ(m.tlb(0).lookup(3), nullptr);
}

} // namespace
