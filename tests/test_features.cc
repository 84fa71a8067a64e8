/**
 * @file
 * Tests for the paper's section-4.3 / future-work extension features:
 * 256-byte sub-page tracking granularity, the lazy consolidation
 * policy, and wear-leveling shadow-page rotation.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/recovery.hh"
#include "core/ssp_system.hh"
#include "tests/test_helpers.hh"

using namespace ssp;
using namespace ssp::test;

namespace
{

// ---- sub-page granularity ------------------------------------------------

class SubPageTest : public ::testing::TestWithParam<unsigned>
{
  protected:
    void
    SetUp() override
    {
        SspConfig cfg = smallConfig();
        cfg.subPageLines = GetParam();
        sys = std::make_unique<SspSystem>(cfg);
    }

    std::unique_ptr<SspSystem> sys;
};

TEST_P(SubPageTest, CommittedStoreReadable)
{
    txWrite64(*sys, 0, 0x1040, 0xabc);
    EXPECT_EQ(raw64(*sys, 0x1040), 0xabcu);
    EXPECT_EQ(timed64(*sys, 0, 0x1040), 0xabcu);
}

TEST_P(SubPageTest, NeighborLinesInSubPageSurviveCow)
{
    // Commit data in all lines of the first sub-page, then rewrite only
    // one line: the group CoW must carry the others along.
    const unsigned group = GetParam();
    sys->begin(0);
    for (unsigned li = 0; li < group; ++li) {
        std::uint64_t v = 100 + li;
        sys->store(0, 0x2000 + li * kLineSize, &v, sizeof(v));
    }
    sys->commit(0);

    txWrite64(*sys, 0, 0x2000, 999); // line 0 only
    EXPECT_EQ(raw64(*sys, 0x2000), 999u);
    for (unsigned li = 1; li < group; ++li)
        EXPECT_EQ(raw64(*sys, 0x2000 + li * kLineSize), 100u + li);
}

TEST_P(SubPageTest, AbortRestoresWholeSubPage)
{
    txWrite64(*sys, 0, 0x3000, 5);
    sys->begin(0);
    std::uint64_t v = 6;
    sys->store(0, 0x3000, &v, sizeof(v));
    sys->abort(0);
    EXPECT_EQ(raw64(*sys, 0x3000), 5u);
    EXPECT_EQ(timed64(*sys, 0, 0x3000), 5u);
}

TEST_P(SubPageTest, CrashRecoveryHolds)
{
    txWrite64(*sys, 0, 0x4000, 1);
    txWrite64(*sys, 0, 0x4100, 2); // a different sub-page at group=4
    sys->begin(0);
    std::uint64_t v = 99;
    sys->store(0, 0x4000, &v, sizeof(v));
    sys->crash();
    sys->recover();
    EXPECT_EQ(raw64(*sys, 0x4000), 1u);
    EXPECT_EQ(raw64(*sys, 0x4100), 2u);
    RecoveryReport report = verifyRecoveredState(*sys);
    EXPECT_TRUE(report.ok);
}

TEST_P(SubPageTest, RandomizedOracleChurn)
{
    Rng rng(GetParam() * 17 + 1);
    std::map<Addr, std::uint64_t> oracle;
    for (unsigned round = 0; round < 50; ++round) {
        sys->begin(0);
        std::vector<std::pair<Addr, std::uint64_t>> pending;
        const unsigned writes = 1 + rng.nextBounded(8);
        for (unsigned i = 0; i < writes; ++i) {
            const Addr addr = pageBase(5 + rng.nextBounded(10)) +
                              rng.nextBounded(64) * kLineSize;
            const std::uint64_t v = rng.next();
            sys->store(0, addr, &v, sizeof(v));
            pending.emplace_back(addr, v);
        }
        if (rng.nextBool(0.2)) {
            sys->abort(0);
        } else {
            sys->commit(0);
            for (auto &[a, v] : pending)
                oracle[a] = v;
        }
    }
    for (auto &[a, v] : oracle)
        EXPECT_EQ(raw64(*sys, a), v);
}

INSTANTIATE_TEST_SUITE_P(Granularity, SubPageTest,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const ::testing::TestParamInfo<unsigned> &i) {
                             return "lines" + std::to_string(i.param);
                         });

TEST(SubPage, CoarserTrackingFlipsFewerBits)
{
    // Writing 4 adjacent lines flips 4 bits at line granularity but only
    // 1 bit (and broadcasts once) at 256-byte granularity.
    SspConfig fine = smallConfig(2);
    SspConfig coarse = smallConfig(2);
    coarse.subPageLines = 4;
    SspSystem fsys(fine), csys(coarse);
    for (SspSystem *sys : {&fsys, &csys}) {
        sys->begin(0);
        std::uint64_t v = 1;
        for (unsigned li = 0; li < 4; ++li)
            sys->store(0, 0x5000 + li * kLineSize, &v, sizeof(v));
        sys->commit(0);
    }
    EXPECT_EQ(fsys.machine().coherence().flipMessages(), 4u);
    EXPECT_EQ(csys.machine().coherence().flipMessages(), 1u);
}

// ---- lazy consolidation ----------------------------------------------------

class LazyConsolidationTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SspConfig cfg = smallConfig();
        cfg.consolidationPolicy = SspConfig::ConsolidationPolicy::Lazy;
        cfg.lazyLowWatermark = 16;
        // A tight pool so slot growth can actually create pressure.
        cfg.shadowPoolPages = 160;
        sys = std::make_unique<SspSystem>(cfg);
    }

    void
    churnPages(Vpn base, unsigned count)
    {
        for (unsigned p = 0; p < count; ++p)
            txWrite64(*sys, 0, pageBase(base + p) + 8, p);
    }

    std::unique_ptr<SspSystem> sys;
};

TEST_F(LazyConsolidationTest, NoCopiesWhilePoolIsPlentiful)
{
    // More pages than the TLB holds: the eager policy would consolidate;
    // the lazy one only queues.
    churnPages(1, sys->cfg().tlbEntries + 16);
    EXPECT_EQ(sys->machine().bus().nvramWrites(
                  WriteCategory::Consolidation),
              0u);
    EXPECT_GT(sys->controller().pendingConsolidations(), 0u);
}

TEST_F(LazyConsolidationTest, RefetchCancelsPending)
{
    churnPages(1, sys->cfg().tlbEntries + 16);
    const auto pending_before = sys->controller().pendingConsolidations();
    ASSERT_GT(pending_before, 0u);
    // Touch an early page again: its pending entry must be canceled.
    txWrite64(*sys, 0, pageBase(1) + 8, 777);
    EXPECT_GT(sys->controller().canceledConsolidations(), 0u);
    EXPECT_EQ(raw64(*sys, pageBase(1) + 8), 777u);
}

TEST_F(LazyConsolidationTest, PoolPressureDrainsQueue)
{
    // Touch enough distinct pages that slot allocations exhaust the
    // shadow pool down to the watermark; the queue must drain.
    const auto pool_size = static_cast<unsigned>(
        std::min(sys->controller().pool().capacity() - 4,
                 sys->cfg().heapPages - 8));
    churnPages(1, pool_size);
    EXPECT_GE(sys->controller().pool().available(), 1u);
    // Draining happened: either consolidation copies were made or
    // consolidated entries were recycled.
    EXPECT_GT(sys->controller().consolidations() +
                  sys->controller().canceledConsolidations(),
              0u);
    // And all data is still correct.
    for (unsigned p = 0; p < pool_size; ++p)
        EXPECT_EQ(raw64(*sys, pageBase(1 + p) + 8), p);
}

TEST_F(LazyConsolidationTest, CrashWithPendingQueueRecovers)
{
    churnPages(1, sys->cfg().tlbEntries + 16);
    sys->crash();
    sys->recover();
    RecoveryReport report = verifyRecoveredState(*sys);
    EXPECT_TRUE(report.ok);
    for (const auto &v : report.violations)
        ADD_FAILURE() << v;
    for (unsigned p = 0; p < sys->cfg().tlbEntries + 16; ++p)
        EXPECT_EQ(raw64(*sys, pageBase(1 + p) + 8), p);
}

TEST_F(LazyConsolidationTest, LazySavesCopiesVsEagerOnReuse)
{
    // A working set slightly larger than the TLB, revisited repeatedly:
    // eager consolidates on every eviction; lazy cancels on refetch.
    SspConfig eager_cfg = smallConfig();
    SspSystem eager(eager_cfg);
    const unsigned pages = eager_cfg.tlbEntries + 8;
    for (unsigned round = 0; round < 4; ++round) {
        for (unsigned p = 0; p < pages; ++p) {
            txWrite64(eager, 0, pageBase(1 + p) + 8, round);
            txWrite64(*sys, 0, pageBase(1 + p) + 8, round);
        }
    }
    EXPECT_LT(
        sys->machine().bus().nvramWrites(WriteCategory::Consolidation),
        eager.machine().bus().nvramWrites(WriteCategory::Consolidation));
}

// ---- wear rotation ---------------------------------------------------------

TEST(WearRotation, RotatesAndStaysConsistent)
{
    SspConfig cfg = smallConfig();
    cfg.wearRotatePeriod = 2; // rotate aggressively for the test
    SspSystem sys(cfg);

    // Cause many consolidations via TLB churn.
    for (unsigned p = 0; p < cfg.tlbEntries + 64; ++p)
        txWrite64(sys, 0, pageBase(1 + p) + 8, p);
    EXPECT_GT(sys.controller().wearRotations(), 0u);

    // Data unaffected by rotation.
    for (unsigned p = 0; p < cfg.tlbEntries + 64; ++p)
        EXPECT_EQ(raw64(sys, pageBase(1 + p) + 8), p);

    // Crash/recovery with rotated pages stays sound.
    sys.crash();
    sys.recover();
    RecoveryReport report = verifyRecoveredState(sys);
    EXPECT_TRUE(report.ok);
    for (const auto &v : report.violations)
        ADD_FAILURE() << v;
    for (unsigned p = 0; p < cfg.tlbEntries + 64; ++p)
        EXPECT_EQ(raw64(sys, pageBase(1 + p) + 8), p);
}

TEST(WearRotation, DisabledByDefault)
{
    SspConfig cfg = smallConfig();
    SspSystem sys(cfg);
    for (unsigned p = 0; p < cfg.tlbEntries + 32; ++p)
        txWrite64(sys, 0, pageBase(1 + p) + 8, p);
    EXPECT_EQ(sys.controller().wearRotations(), 0u);
}

} // namespace
