#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sentinel_layout.hh"
#include "nandsim/read_seq.hh"
#include "nandsim/snapshot.hh"
#include "test_support.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

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

// The chip's snapshot memo (Chip::memoSnapshot).

TEST_F(SnapshotTest, MemoHitEqualsFreshSnapshot)
{
    const int n = chip.geometry().dataBitlines;
    const int all = chip.geometry().bitlines();
    const auto first = chip.memoSnapshot(0, 3, 11, 0, n);
    EXPECT_EQ(chip.senseMemoBytes(), first->bytes());
    const auto hit = chip.memoSnapshot(0, 3, 11, 0, n);
    EXPECT_EQ(hit, first) << "a repeated read must share the snapshot";
    EXPECT_TRUE(*hit == WordlineSnapshot(chip, 0, 3, 11, 0, n));

    // Each key field selects its own sense.
    const auto seq = chip.memoSnapshot(0, 3, 12, 0, n);
    const auto wl = chip.memoSnapshot(0, 4, 11, 0, n);
    const auto block = chip.memoSnapshot(1, 3, 11, 0, n);
    const auto begin = chip.memoSnapshot(0, 3, 11, 1, n);
    const auto end = chip.memoSnapshot(0, 3, 11, 0, all);
    for (const auto &other : {seq, wl, block, begin, end})
        EXPECT_NE(other, first);
    EXPECT_TRUE(*seq == WordlineSnapshot(chip, 0, 3, 12, 0, n));
    EXPECT_TRUE(*wl == WordlineSnapshot(chip, 0, 4, 11, 0, n));
    EXPECT_TRUE(*block == WordlineSnapshot(chip, 1, 3, 11, 0, n));
    EXPECT_TRUE(*begin == WordlineSnapshot(chip, 0, 3, 11, 1, n));
    EXPECT_TRUE(*end == WordlineSnapshot(chip, 0, 3, 11, 0, all));

    EXPECT_THROW(chip.memoSnapshot(9, 0, 1, 0, n), util::FatalError);
    EXPECT_THROW(chip.memoSnapshot(0, 0, 1, 10, 5), util::FatalError);
}

TEST(SenseMemo, EveryMutatorInvalidatesItsBlock)
{
    const std::vector<std::pair<std::string, std::function<void(Chip &)>>>
        mutators = {
            {"setPeCycles", [](Chip &c) { c.setPeCycles(0, 5000); }},
            {"age", [](Chip &c) { c.age(0, 8760.0, 25.0); }},
            {"refresh", [](Chip &c) { c.refresh(0); }},
            {"recordReads", [](Chip &c) { c.recordReads(0, 1000000); }},
            {"setBlockAge",
             [](Chip &c) {
                 BlockAge a = c.blockAge(0);
                 a.peCycles = 500;
                 c.setBlockAge(0, a);
             }},
            {"programWordline",
             [](Chip &c) {
                 WordlineContent w;
                 w.dataSeed = 77;
                 c.programWordline(0, 2, w);
             }},
            {"programBlock", [](Chip &c) { c.programBlock(0, 77); }},
        };
    for (const auto &[name, mutate] : mutators) {
        Chip c(tinyQlcGeometry(), qlcVoltageParams(), 31);
        c.setPeCycles(0, 3000);
        c.age(0, 8760.0, 25.0);
        const int n = c.geometry().dataBitlines;
        const auto before = c.memoSnapshot(0, 2, 9, 0, n);
        const auto bystander = c.memoSnapshot(1, 2, 9, 0, n);

        mutate(c);
        EXPECT_EQ(c.senseMemoBytes(), bystander->bytes())
            << name << ": the block's entries must be dropped";
        const auto after = c.memoSnapshot(0, 2, 9, 0, n);
        EXPECT_TRUE(*after == WordlineSnapshot(c, 0, 2, 9, 0, n))
            << name << ": the next read must see the new state";
        EXPECT_FALSE(*after == *before)
            << name << ": the mutation must change what a sense sees";
        EXPECT_EQ(c.memoSnapshot(1, 2, 9, 0, n), bystander)
            << name << ": other blocks keep their entries";
    }
}

TEST(SenseMemo, MovedChipStartsEmpty)
{
    Chip from(tinyQlcGeometry(), qlcVoltageParams(), 31);
    const int n = from.geometry().dataBitlines;
    const auto warm = from.memoSnapshot(0, 1, 5, 0, n);
    ASSERT_GT(from.senseMemoBytes(), 0u);

    // Snapshots point at their chip's Gray code, so the moved-to chip
    // must sense its own.
    const Chip to(std::move(from));
    EXPECT_EQ(to.senseMemoBytes(), 0u);
    const auto fresh = to.memoSnapshot(0, 1, 5, 0, n);
    EXPECT_NE(fresh, warm);
    EXPECT_EQ(&fresh->grayCode(), &to.grayCode());
    EXPECT_TRUE(*fresh == WordlineSnapshot(to, 0, 1, 5, 0, n));
}

TEST(SenseMemo, PaperSweepStaysWithinTheByteBound)
{
    ChipGeometry g = paperTlcGeometry();
    g.blocks = 2;
    Chip chip(g, tlcVoltageParams(), 7);
    const SentinelOverlay overlay = core::makeOverlay(g, {});
    chip.programBlock(1, 3, overlay);
    chip.setPeCycles(1, 3000);
    chip.age(1, 8760.0, 25.0);
    const ReadClock clock(1);
    // A policy session's two snapshots: data first, then sentinel.
    const auto session = [&](int wl) {
        return std::pair{
            chip.memoSnapshot(1, wl, clock.at(1, wl, 0), 0, g.dataBitlines),
            chip.memoSnapshot(1, wl, clock.at(1, wl, 1), overlay.start,
                              overlay.start + overlay.count)};
    };

    // One block's stride-8 sweep fits whole: a second arm over the
    // same stream shares every snapshot.
    std::vector<std::pair<std::shared_ptr<const WordlineSnapshot>,
                          std::shared_ptr<const WordlineSnapshot>>>
        first;
    for (int wl = 0; wl < g.wordlinesPerBlock(); wl += 8)
        first.push_back(session(wl));
    EXPECT_LE(chip.senseMemoBytes(), Chip::kSenseMemoBytes);
    for (int wl = 0; wl < g.wordlinesPerBlock(); wl += 8)
        EXPECT_EQ(session(wl), first[static_cast<std::size_t>(wl / 8)])
            << "wordline " << wl;

    // The stride-1 sweep does not fit: the memo evicts the least
    // recently used entries and never holds more than the bound.
    for (int wl = 0; wl < g.wordlinesPerBlock(); ++wl) {
        session(wl);
        ASSERT_LE(chip.senseMemoBytes(), Chip::kSenseMemoBytes)
            << "wordline " << wl;
    }
    EXPECT_GT(chip.senseMemoBytes(), Chip::kSenseMemoBytes / 2);
    const auto resensed = session(0);
    EXPECT_NE(resensed.first, first[0].first);
    EXPECT_TRUE(*resensed.first == *first[0].first);
    EXPECT_TRUE(*resensed.second == *first[0].second);
}

TEST(SenseMemo, ConcurrentReadersShareOneSnapshot)
{
    Chip chip(test::mediumTlcGeometry(), tlcVoltageParams(), 5);
    chip.setPeCycles(0, 3000);
    chip.age(0, 8760.0, 25.0);
    const int n = chip.geometry().dataBitlines;
    // Every thread asks for the same 16 wordlines in the same order,
    // so threads race on each key's miss and insert.
    constexpr int kKeys = 16, kThreads = 4;
    std::vector<std::shared_ptr<const WordlineSnapshot>> got(kKeys
                                                             * kThreads);
    util::parallelFor(kThreads, kKeys * kThreads, [&](int i) {
        got[static_cast<std::size_t>(i)] =
            chip.memoSnapshot(0, i % kKeys, 7, 0, n);
    });
    for (int i = 0; i < kKeys * kThreads; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)],
                  got[static_cast<std::size_t>(i % kKeys)])
            << "read " << i;
    }
    for (int wl = 0; wl < kKeys; ++wl) {
        EXPECT_TRUE(*got[static_cast<std::size_t>(wl)]
                    == WordlineSnapshot(chip, 0, wl, 7, 0, n))
            << "wordline " << wl;
    }
}

} // namespace
} // namespace flash::nand
