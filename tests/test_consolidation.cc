/**
 * @file
 * Unit tests for page consolidation: minority-side selection, the
 * P0/P1 role swap, journal records, page-table retargeting, and the
 * write accounting that feeds Figure 7b.
 */

#include <gtest/gtest.h>

#include "core/ssp_system.hh"
#include "tests/test_helpers.hh"

using namespace ssp;
using namespace ssp::test;

namespace
{

class ConsolidationTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sys = std::make_unique<SspSystem>(smallConfig());
    }

    /** Commit one tx touching the given lines of the given page. */
    void
    touchLines(Vpn vpn, std::initializer_list<unsigned> lines,
               std::uint64_t value)
    {
        sys->begin(0);
        for (unsigned li : lines) {
            std::uint64_t v = value + li;
            sys->store(0, pageBase(vpn) + li * kLineSize, &v, sizeof(v));
        }
        sys->commit(0);
    }

    /** Force the page out of the (single-core) TLB by touching others.
     *  Fillers are only read, so they consolidate for free and do not
     *  perturb the consolidation-write accounting. */
    void
    evictFromTlb(Vpn vpn)
    {
        const unsigned entries = sys->cfg().tlbEntries;
        Vpn filler = 300;
        unsigned filled = 0;
        while (filled <= entries) {
            if (filler != vpn) {
                std::uint64_t v = 0;
                sys->load(0, pageBase(filler), &v, sizeof(v));
                ++filled;
            }
            ++filler;
        }
    }

    std::unique_ptr<SspSystem> sys;
};

TEST_F(ConsolidationTest, MinorityInP1CopiesIntoP0)
{
    // 3 lines committed to P1 (first commit flips them 0->1).
    touchLines(20, {1, 2, 3}, 100);
    SlotId sid = sys->controller().cache().findSlot(20);
    ASSERT_NE(sid, kInvalidSlot);
    const Ppn orig_p0 = sys->controller().cache().entry(sid).ppn0;

    const std::uint64_t before =
        sys->machine().bus().nvramWrites(WriteCategory::Consolidation);
    evictFromTlb(20);

    // The slot may have been recycled; the durable content must have
    // merged into the page the page table maps.
    EXPECT_EQ(sys->machine().pt().translate(20), orig_p0);
    for (unsigned li : {1u, 2u, 3u})
        EXPECT_EQ(raw64(*sys, pageBase(20) + li * kLineSize), 100u + li);
    const std::uint64_t after =
        sys->machine().bus().nvramWrites(WriteCategory::Consolidation);
    EXPECT_EQ(after - before, 3u); // exactly the minority lines
}

TEST_F(ConsolidationTest, MajorityInP1SwapsRoles)
{
    // Commit 40 lines into P1: majority side is P1, so consolidation
    // copies the remaining 24 committed-in-P0 lines and swaps roles.
    std::vector<unsigned> lines;
    for (unsigned i = 0; i < 40; ++i)
        lines.push_back(i);
    sys->begin(0);
    for (unsigned li : lines) {
        std::uint64_t v = 500 + li;
        sys->store(0, pageBase(21) + li * kLineSize, &v, sizeof(v));
    }
    sys->commit(0);

    SlotId sid = sys->controller().cache().findSlot(21);
    ASSERT_NE(sid, kInvalidSlot);
    const Ppn p0 = sys->controller().cache().entry(sid).ppn0;
    const Ppn p1 = sys->controller().cache().entry(sid).ppn1;

    const std::uint64_t before =
        sys->machine().bus().nvramWrites(WriteCategory::Consolidation);
    evictFromTlb(21);
    const std::uint64_t after =
        sys->machine().bus().nvramWrites(WriteCategory::Consolidation);

    // 64 - 40 = 24 lines copied, and the mapping now points at old P1.
    EXPECT_EQ(after - before, 24u);
    EXPECT_EQ(sys->machine().pt().translate(21), p1);
    (void)p0;
    for (unsigned li : lines)
        EXPECT_EQ(raw64(*sys, pageBase(21) + li * kLineSize), 500u + li);
}

TEST_F(ConsolidationTest, CleanPageConsolidatesForFree)
{
    // A page only read (never written) has committed == 0; losing TLB
    // residency must not copy anything.
    sys->begin(0);
    std::uint64_t v = 0;
    sys->load(0, pageBase(22), &v, sizeof(v));
    sys->commit(0);

    const std::uint64_t before =
        sys->machine().bus().nvramWrites(WriteCategory::Consolidation);
    evictFromTlb(22);
    EXPECT_EQ(sys->machine().bus().nvramWrites(WriteCategory::Consolidation),
              before);
}

TEST_F(ConsolidationTest, HotPageNotPrematurelyConsolidated)
{
    // A page kept hot in the TLB accumulates many commits with zero
    // consolidation traffic — the batching effect of section 5.2.
    const std::uint64_t before =
        sys->machine().bus().nvramWrites(WriteCategory::Consolidation);
    for (unsigned i = 0; i < 200; ++i)
        touchLines(23, {i % 8}, i);
    EXPECT_EQ(sys->machine().bus().nvramWrites(WriteCategory::Consolidation),
              before);
}

TEST_F(ConsolidationTest, ConsolidationJournalsTheMappingChange)
{
    touchLines(24, {0}, 7);
    const auto &journal = sys->controller().journal();
    const std::uint64_t before_bytes = journal.appendedBytes();
    evictFromTlb(24);
    // At least one Consolidate record was appended (40 bytes each).
    EXPECT_GT(journal.appendedBytes() + 1, before_bytes);
}

TEST_F(ConsolidationTest, DataIntactAfterManyConsolidationCycles)
{
    // Alternate between writing a page and forcing it out of the TLB.
    for (unsigned round = 0; round < 5; ++round) {
        touchLines(25, {0, 5, 9}, round * 1000);
        evictFromTlb(25);
    }
    for (unsigned li : {0u, 5u, 9u})
        EXPECT_EQ(raw64(*sys, pageBase(25) + li * kLineSize), 4000u + li);
}

TEST_F(ConsolidationTest, CopiedLineStatsTracked)
{
    touchLines(26, {0, 1}, 9);
    evictFromTlb(26);
    const auto &summary = sys->controller().copiedLines();
    EXPECT_GT(summary.count(), 0u);
}

TEST_F(ConsolidationTest, PageWrittenByOpenTxNotConsolidated)
{
    // Begin a tx on page 27, then cause TLB pressure; the core refcount
    // must protect the page from consolidation.
    sys->begin(0);
    std::uint64_t v = 42;
    sys->store(0, pageBase(27), &v, sizeof(v));

    SlotId sid = sys->controller().cache().findSlot(27);
    ASSERT_NE(sid, kInvalidSlot);

    // Touch many other pages with plain loads inside the same tx — the
    // write set stays small but the TLB churns.
    for (Vpn filler = 400; filler < 400 + 80; ++filler) {
        std::uint64_t tmp = 0;
        sys->load(0, pageBase(filler), &tmp, sizeof(tmp));
    }

    // The page's entry must still be live and unconsolidated (its
    // current bitmap still differs from committed).
    const SspCacheEntry &e = sys->controller().cache().entry(sid);
    EXPECT_TRUE(e.valid);
    EXPECT_EQ(e.coreRefCount, 1u);
    EXPECT_NE(e.current.raw(), e.committed.raw());

    sys->commit(0);
    EXPECT_EQ(raw64(*sys, pageBase(27)), 42u);
}

} // namespace
