#include <gtest/gtest.h>

#include <cmath>

#include "nandsim/snapshot.hh"
#include "test_support.hh"
#include "util/logging.hh"

namespace flash::nand
{
namespace
{

class SnapshotTest : public ::testing::Test
{
  protected:
    SnapshotTest() : chip(tinyQlcGeometry(), qlcVoltageParams(), 31)
    {
        chip.setPeCycles(0, 3000);
        chip.age(0, 8760.0, 25.0);
    }

    Chip chip;
};

TEST_F(SnapshotTest, CellCountsMatchRegions)
{
    const auto data = WordlineSnapshot::dataRegion(chip, 0, 0, 1);
    EXPECT_EQ(data.cells(),
              static_cast<std::uint64_t>(chip.geometry().dataBitlines));
    const auto full = WordlineSnapshot::fullWordline(chip, 0, 0, 1);
    EXPECT_EQ(full.cells(),
              static_cast<std::uint64_t>(chip.geometry().bitlines()));

    std::uint64_t per_state = 0;
    for (int s = 0; s < data.states(); ++s)
        per_state += data.cellsInState(s);
    EXPECT_EQ(per_state, data.cells());
}

TEST_F(SnapshotTest, UpDownErrorsMatchBruteForce)
{
    const std::uint64_t seq = 42;
    const auto snap = WordlineSnapshot(chip, 0, 3, seq, 0, 2048);
    const WordlineContext ctx = chip.wordlineContext(0, 3);

    for (int k : {1, 4, 8, 15}) {
        const int v = chip.model().defaultVoltage(k);
        std::uint64_t up = 0, down = 0;
        for (int col = 0; col < 2048; ++col) {
            const int s = chip.trueState(0, 3, col);
            const double vth =
                chip.cellVth(ctx, 0, 3, col, s, seq);
            const int vi = static_cast<int>(std::lround(vth));
            if (s == k - 1 && vi > v)
                ++up;
            if (s == k && vi <= v)
                ++down;
        }
        EXPECT_EQ(snap.upErrors(k, v), up) << "k=" << k;
        EXPECT_EQ(snap.downErrors(k, v), down) << "k=" << k;
    }
}

TEST_F(SnapshotTest, PageErrorsMatchExactChipRead)
{
    // The snapshot's region-based counting must agree with the
    // cell-by-cell page read at the same read sequence.
    const std::uint64_t seq = 77;
    const auto snap = WordlineSnapshot::dataRegion(chip, 0, 1, seq);
    const auto v = chip.model().defaultVoltages();
    for (int page = 0; page < chip.geometry().pagesPerWordline(); ++page) {
        EXPECT_EQ(snap.pageErrors(page, v),
                  test::exactPageErrors(chip, 0, 1, page, v, seq))
            << "page " << page;
    }
}

TEST_F(SnapshotTest, PageErrorsMatchExactReadAtTunedVoltages)
{
    const std::uint64_t seq = 78;
    const auto snap = WordlineSnapshot::dataRegion(chip, 0, 2, seq);
    auto v = chip.model().defaultVoltages();
    for (std::size_t k = 1; k < v.size(); ++k)
        v[k] -= 15;
    for (int page = 0; page < chip.geometry().pagesPerWordline(); ++page) {
        EXPECT_EQ(snap.pageErrors(page, v),
                  test::exactPageErrors(chip, 0, 2, page, v, seq))
            << "page " << page;
    }
}

TEST_F(SnapshotTest, BoundaryErrorsAreUpPlusDown)
{
    const auto snap = WordlineSnapshot::dataRegion(chip, 0, 0, 5);
    const int v = chip.model().defaultVoltage(8);
    EXPECT_EQ(snap.boundaryErrors(8, v),
              snap.upErrors(8, v) + snap.downErrors(8, v));
}

TEST_F(SnapshotTest, UpErrorsMonotoneInThreshold)
{
    const auto snap = WordlineSnapshot::dataRegion(chip, 0, 0, 5);
    const int v = chip.model().defaultVoltage(8);
    // Raising the threshold can only reduce up errors and increase
    // down errors.
    EXPECT_GE(snap.upErrors(8, v - 10), snap.upErrors(8, v + 10));
    EXPECT_LE(snap.downErrors(8, v - 10), snap.downErrors(8, v + 10));
}

TEST_F(SnapshotTest, CellsInVthRange)
{
    const auto snap = WordlineSnapshot::dataRegion(chip, 0, 0, 5);
    const int lo = chip.model().vthMin();
    const int hi = chip.model().vthMax();
    EXPECT_EQ(snap.cellsInVthRange(lo - 1, hi), snap.cells());
    EXPECT_EQ(snap.cellsInVthRange(5, 5), 0u);
    // Swapped bounds behave the same.
    EXPECT_EQ(snap.cellsInVthRange(100, 0), snap.cellsInVthRange(0, 100));
    // Additivity.
    EXPECT_EQ(snap.cellsInVthRange(0, 50) + snap.cellsInVthRange(50, 100),
              snap.cellsInVthRange(0, 100));
}

TEST_F(SnapshotTest, StateCellsInRange)
{
    const auto snap = WordlineSnapshot::dataRegion(chip, 0, 0, 5);
    std::uint64_t total = 0;
    const int lo = chip.model().vthMin();
    const int hi = chip.model().vthMax();
    for (int s = 0; s < snap.states(); ++s)
        total += snap.stateCellsInRange(s, lo - 1, hi);
    EXPECT_EQ(total, snap.cells());
}

TEST_F(SnapshotTest, DifferentReadSeqGivesSlightlyDifferentCounts)
{
    const auto a = WordlineSnapshot::dataRegion(chip, 0, 0, 100);
    const auto b = WordlineSnapshot::dataRegion(chip, 0, 0, 101);
    const int v = chip.model().defaultVoltage(8);
    // Same static field, fresh sensing noise: counts close, usually
    // not identical (the paper's read-to-read RBER noise).
    const auto ea = a.boundaryErrors(8, v);
    const auto eb = b.boundaryErrors(8, v);
    const double rel = std::abs(static_cast<double>(ea)
                                - static_cast<double>(eb))
        / std::max<double>(1.0, static_cast<double>(ea));
    EXPECT_LT(rel, 0.5);
}

TEST_F(SnapshotTest, SentinelRegionSnapshotSeesOnlyTwoStates)
{
    SentinelOverlay o;
    o.start = chip.geometry().bitlines() - 64;
    o.count = 64;
    o.lowState = 7;
    o.highState = 8;
    WordlineContent c;
    c.dataSeed = 5;
    c.sentinels = o;
    chip.programWordline(0, 4, c);

    const WordlineSnapshot snap(chip, 0, 4, 9, o.start, o.start + o.count);
    EXPECT_EQ(snap.cells(), 64u);
    EXPECT_EQ(snap.cellsInState(7), 32u);
    EXPECT_EQ(snap.cellsInState(8), 32u);
    EXPECT_EQ(snap.cellsInState(0), 0u);
}

TEST_F(SnapshotTest, BadArgumentsFatal)
{
    EXPECT_THROW(WordlineSnapshot(chip, 0, 0, 1, -1, 10), util::FatalError);
    EXPECT_THROW(WordlineSnapshot(chip, 0, 0, 1, 10, 5), util::FatalError);
    const auto snap = WordlineSnapshot::dataRegion(chip, 0, 0, 1);
    EXPECT_THROW(snap.upErrors(0, 0), util::FatalError);
    EXPECT_THROW(snap.upErrors(16, 0), util::FatalError);
    EXPECT_THROW(snap.cellsInState(-1), util::FatalError);
}

} // namespace
} // namespace flash::nand
