/**
 * @file
 * Recovery tests for SSP (paper section 4.4): committed data survives a
 * power failure, uncommitted data vanishes, journal replay skips
 * unfinished transactions, consolidation records recover correctly, and
 * the post-recovery structural invariants hold.
 */

#include <gtest/gtest.h>

#include "core/recovery.hh"
#include "core/ssp_system.hh"
#include "tests/test_helpers.hh"

using namespace ssp;
using namespace ssp::test;

namespace
{

class SspRecoveryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sys = std::make_unique<SspSystem>(smallConfig());
    }

    void
    crashAndRecover()
    {
        sys->crash();
        sys->recover();
        RecoveryReport report = verifyRecoveredState(*sys);
        EXPECT_TRUE(report.ok);
        for (const auto &v : report.violations)
            ADD_FAILURE() << v;
    }

    std::unique_ptr<SspSystem> sys;
};

TEST_F(SspRecoveryTest, CommittedDataSurvives)
{
    txWrite64(*sys, 0, 0x1000, 0x1111);
    txWrite64(*sys, 0, 0x2008, 0x2222);
    crashAndRecover();
    EXPECT_EQ(raw64(*sys, 0x1000), 0x1111u);
    EXPECT_EQ(raw64(*sys, 0x2008), 0x2222u);
    // Timed reads work again after recovery (TLBs refill).
    EXPECT_EQ(timed64(*sys, 0, 0x1000), 0x1111u);
}

TEST_F(SspRecoveryTest, UncommittedTransactionVanishes)
{
    txWrite64(*sys, 0, 0x3000, 1);
    sys->begin(0);
    std::uint64_t v = 999;
    sys->store(0, 0x3000, &v, sizeof(v));
    sys->store(0, 0x4000, &v, sizeof(v));
    // Crash mid-transaction (no commit).
    crashAndRecover();
    EXPECT_EQ(raw64(*sys, 0x3000), 1u);
    EXPECT_EQ(raw64(*sys, 0x4000), 0u);
}

TEST_F(SspRecoveryTest, MultiPageAtomicityAcrossCrash)
{
    // The Figure 2 scenario: a transaction spanning two pages must be
    // all-or-nothing even when the crash interrupts the metadata
    // updates.  Committed transactions have their marker persisted, so
    // recovery applies both pages' bitmaps.
    sys->begin(0);
    std::uint64_t v = 0xaa;
    sys->store(0, pageBase(10) + 0, &v, sizeof(v));
    sys->store(0, pageBase(10) + 64, &v, sizeof(v));
    v = 0xbb;
    sys->store(0, pageBase(11) + 128, &v, sizeof(v));
    sys->store(0, pageBase(11) + 192, &v, sizeof(v));
    sys->commit(0);

    crashAndRecover();
    EXPECT_EQ(raw64(*sys, pageBase(10) + 0), 0xaau);
    EXPECT_EQ(raw64(*sys, pageBase(10) + 64), 0xaau);
    EXPECT_EQ(raw64(*sys, pageBase(11) + 128), 0xbbu);
    EXPECT_EQ(raw64(*sys, pageBase(11) + 192), 0xbbu);
}

TEST_F(SspRecoveryTest, RepeatedCrashesAreIdempotent)
{
    txWrite64(*sys, 0, 0x5000, 77);
    for (int i = 0; i < 3; ++i)
        crashAndRecover();
    EXPECT_EQ(raw64(*sys, 0x5000), 77u);
}

TEST_F(SspRecoveryTest, WorkContinuesAfterRecovery)
{
    txWrite64(*sys, 0, 0x6000, 1);
    crashAndRecover();
    txWrite64(*sys, 0, 0x6000, 2);
    txWrite64(*sys, 0, 0x6040, 3);
    EXPECT_EQ(raw64(*sys, 0x6000), 2u);
    EXPECT_EQ(raw64(*sys, 0x6040), 3u);
    crashAndRecover();
    EXPECT_EQ(raw64(*sys, 0x6000), 2u);
    EXPECT_EQ(raw64(*sys, 0x6040), 3u);
}

TEST_F(SspRecoveryTest, CheckpointThenCrashRecovers)
{
    // Force enough journal traffic to trigger checkpoints, then crash.
    for (unsigned i = 0; i < 600; ++i)
        txWrite64(*sys, 0, pageBase(1 + (i % 20)) + (i % 64) * 64, i);
    EXPECT_GT(sys->controller().checkpoints(), 0u);
    crashAndRecover();
    // Spot-check the last value written to each page.
    for (unsigned p = 0; p < 20; ++p) {
        bool found = false;
        for (unsigned i = 0; i < 600 && !found; ++i) {
            if (1 + (i % 20) == 1 + p) {
                // compute the final write to this (page, line)
            }
        }
        (void)found;
    }
    // Full functional check: re-derive expected values.
    std::map<Addr, std::uint64_t> expected;
    for (unsigned i = 0; i < 600; ++i)
        expected[pageBase(1 + (i % 20)) + (i % 64) * 64] = i;
    for (const auto &[addr, value] : expected)
        EXPECT_EQ(raw64(*sys, addr), value);
}

TEST_F(SspRecoveryTest, ConsolidatedPagesRecover)
{
    // Write pages, force consolidation via TLB pressure, crash.
    for (Vpn p = 30; p < 30 + 100; ++p)
        txWrite64(*sys, 0, pageBase(p) + 8, p * 3);
    EXPECT_GT(sys->controller().consolidations(), 0u);
    crashAndRecover();
    for (Vpn p = 30; p < 30 + 100; ++p)
        EXPECT_EQ(raw64(*sys, pageBase(p) + 8), p * 3);
}

TEST_F(SspRecoveryTest, PartialJournalFlushDiscardsTail)
{
    // Commit one tx (durable), then hand-append an Update record
    // without a commit marker and crash: the update must be ignored.
    txWrite64(*sys, 0, 0x7000, 5);
    MemController &mc = sys->controller();
    SlotId sid = mc.cache().findSlot(pageOf(0x7000));
    ASSERT_NE(sid, kInvalidSlot);

    // Forge an uncommitted metadata update claiming line 1 moved.
    Bitmap64 updated;
    updated.set(1);
    mc.metadataUpdate(sys->machine(), 9999, sid, updated, 0);
    // Flush the journal so the record itself is durable — but there is
    // no commit marker for tid 9999.
    mc.journal().flush(sys->machine().bus(), 0);

    crashAndRecover();
    // The forged update must have been skipped: line 1 still reads 0.
    EXPECT_EQ(raw64(*sys, 0x7000 + 64), 0u);
    EXPECT_EQ(raw64(*sys, 0x7000), 5u);
}

TEST_F(SspRecoveryTest, RecoveryReportCatchesNoViolationsOnFreshSystem)
{
    crashAndRecover();
    RecoveryReport report = verifyRecoveredState(*sys);
    EXPECT_TRUE(report.ok);
    EXPECT_TRUE(report.violations.empty());
}

TEST_F(SspRecoveryTest, AbortThenCrashKeepsCommittedState)
{
    txWrite64(*sys, 0, 0x8000, 10);
    sys->begin(0);
    std::uint64_t v = 11;
    sys->store(0, 0x8000, &v, sizeof(v));
    sys->abort(0);
    crashAndRecover();
    EXPECT_EQ(raw64(*sys, 0x8000), 10u);
}

} // namespace
