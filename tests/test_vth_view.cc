/**
 * WordlineVthView equivalence suite: the batched sensing path must be
 * bit-identical to the per-cell chip APIs it accelerates — senseDac
 * vs cellVth, packBits vs readBits, pageRead vs the byte-wise oracle
 * (the Chip::readPage regression), histograms binned from a view
 * sense vs direct snapshots.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/sentinel_layout.hh"
#include "nandsim/snapshot.hh"
#include "nandsim/vth_view.hh"
#include "test_support.hh"
#include "util/histogram.hh"
#include "util/logging.hh"

namespace flash::nand
{
namespace
{

class VthViewTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        chip = std::make_unique<Chip>(test::mediumTlcGeometry(),
                                      tlcVoltageParams(), 987);
        core::SentinelConfig scfg;
        scfg.ratio = 0.01;
        overlay = core::makeOverlay(chip->geometry(), scfg);
        chip->programBlock(1, 5, overlay);
        chip->setPeCycles(1, 5000);
        chip->age(1, 8760.0, 25.0);
    }

    static void TearDownTestSuite() { chip.reset(); }

    static std::unique_ptr<Chip> chip;
    static SentinelOverlay overlay;
};

std::unique_ptr<Chip> VthViewTest::chip;
SentinelOverlay VthViewTest::overlay;

constexpr int kBlock = 1;
constexpr int kWl = 3;

TEST_F(VthViewTest, SenseDacReproducesCellVthExactly)
{
    const WordlineVthView view(*chip, kBlock, kWl, 0, 4096);
    const WordlineContext ctx = chip->wordlineContext(kBlock, kWl);
    for (const std::uint64_t seq : {0ULL, 1ULL, 77ULL, 0xdeadULL}) {
        const auto dac = view.senseDac(seq);
        ASSERT_EQ(dac.size(), view.cells());
        for (std::size_t i = 0; i < view.cells(); ++i) {
            const double vth =
                chip->cellVth(ctx, kBlock, kWl, static_cast<int>(i),
                              view.state(i), seq);
            EXPECT_EQ(dac[i], static_cast<int>(std::lround(vth)))
                << "cell " << i << " seq " << seq;
        }
    }
}

TEST_F(VthViewTest, StaticPlusNoiseEqualsCellVth)
{
    const WordlineVthView view(*chip, kBlock, kWl, 100, 600);
    const WordlineContext ctx = chip->wordlineContext(kBlock, kWl);
    for (std::size_t i = 0; i < view.cells(); ++i) {
        const int col = 100 + static_cast<int>(i);
        const double direct =
            chip->cellVth(ctx, kBlock, kWl, col, view.state(i), 42);
        const double split = view.staticVth(i)
            + chip->readNoise(ctx, kBlock, kWl, col, 42);
        EXPECT_EQ(direct, split) << "col " << col;
    }
}

TEST_F(VthViewTest, PackBitsMatchesReadBits)
{
    const int cells = chip->geometry().dataBitlines;
    const WordlineVthView view =
        WordlineVthView::dataRegion(*chip, kBlock, kWl);
    const auto defaults = chip->model().defaultVoltages();
    for (int page = 0; page < chip->geometry().pagesPerWordline();
         ++page) {
        const std::uint64_t seq = 500 + static_cast<std::uint64_t>(page);
        const auto packed =
            view.packBits(page, defaults, view.senseDac(seq));
        std::vector<std::uint8_t> bytes;
        chip->readBits(kBlock, kWl, page, defaults, seq, 0, cells, bytes);
        ASSERT_EQ(packed.size(), bytes.size());
        for (std::size_t i = 0; i < bytes.size(); ++i)
            ASSERT_EQ(packed.test(i), bytes[i] != 0)
                << "page " << page << " cell " << i;
    }
}

TEST_F(VthViewTest, TruePageBitsMatchChipTrueBits)
{
    const int cells = chip->geometry().dataBitlines;
    const WordlineVthView view =
        WordlineVthView::dataRegion(*chip, kBlock, kWl);
    for (int page = 0; page < chip->geometry().pagesPerWordline();
         ++page) {
        const auto &packed = view.truePageBits(page);
        std::vector<std::uint8_t> bytes;
        chip->trueBits(kBlock, kWl, page, 0, cells, bytes);
        ASSERT_EQ(packed.size(), bytes.size());
        for (std::size_t i = 0; i < bytes.size(); ++i)
            ASSERT_EQ(packed.test(i), bytes[i] != 0)
                << "page " << page << " cell " << i;
    }
}

// Satellite regression: Chip::readPage (now one WordlineVthView for
// all voltages instead of a per-voltage context + rehash) must return
// the same PageReadResult as the byte-wise oracle, voltage set by
// voltage set.
TEST_F(VthViewTest, ReadPageMatchesByteWiseOracle)
{
    const int cells = chip->geometry().dataBitlines;
    auto voltages = chip->model().defaultVoltages();
    for (int shift = 0; shift <= 8; shift += 4) {
        auto v = voltages;
        for (std::size_t k = 1; k < v.size(); ++k)
            v[k] -= shift;
        for (int page = 0; page < chip->geometry().pagesPerWordline();
             ++page) {
            const std::uint64_t seq =
                900 + static_cast<std::uint64_t>(shift * 10 + page);
            const PageReadResult got =
                chip->readPage(kBlock, kWl, page, v, seq);

            std::vector<std::uint8_t> sensed, truth;
            chip->readBits(kBlock, kWl, page, v, seq, 0, cells, sensed);
            chip->trueBits(kBlock, kWl, page, 0, cells, truth);
            std::uint64_t errs = 0;
            for (std::size_t i = 0; i < sensed.size(); ++i)
                errs += sensed[i] != truth[i];

            EXPECT_EQ(got.bits, static_cast<std::uint64_t>(cells));
            EXPECT_EQ(got.bitErrors, errs)
                << "page " << page << " shift " << shift;
        }
    }
}

TEST_F(VthViewTest, SnapshotFromViewMatchesDirectSnapshot)
{
    // Histograms binned from one view sense equal the direct
    // (streaming) snapshot of the same read, bin for bin.
    const std::uint64_t seq = 1234;
    const WordlineVthView view =
        WordlineVthView::dataRegion(*chip, kBlock, kWl);
    const WordlineSnapshot direct =
        WordlineSnapshot::dataRegion(*chip, kBlock, kWl, seq);

    const int lo = chip->model().vthMin();
    const int hi = chip->model().vthMax();
    std::vector<util::Histogram> from_view(
        static_cast<std::size_t>(direct.states()), util::Histogram(lo, hi));
    const auto dac = view.senseDac(seq);
    for (std::size_t i = 0; i < view.cells(); ++i)
        from_view[view.state(i)].add(dac[i]);

    ASSERT_EQ(view.cells(), direct.cells());
    for (int s = 0; s < direct.states(); ++s) {
        const auto &h = from_view[static_cast<std::size_t>(s)];
        EXPECT_EQ(h.total(), direct.cellsInState(s));
        for (int v = lo; v <= hi; ++v)
            ASSERT_EQ(h.binCount(v), direct.stateCellsInRange(s, v - 1, v))
                << "state " << s << " dac " << v;
    }
}

TEST_F(VthViewTest, CellsInStateMatchesStateArray)
{
    const WordlineVthView view =
        WordlineVthView::dataRegion(*chip, kBlock, kWl);
    std::vector<std::uint64_t> counts(
        static_cast<std::size_t>(chip->geometry().states()), 0);
    for (std::size_t i = 0; i < view.cells(); ++i)
        ++counts[view.state(i)];
    for (int s = 0; s < chip->geometry().states(); ++s)
        EXPECT_EQ(view.cellsInState(s), counts[static_cast<std::size_t>(s)]);
    EXPECT_THROW(view.cellsInState(-1), util::FatalError);
    EXPECT_THROW(view.cellsInState(chip->geometry().states()),
                 util::FatalError);
}

TEST_F(VthViewTest, RejectsBadRanges)
{
    EXPECT_THROW(WordlineVthView(*chip, kBlock, kWl, -1, 10),
                 util::FatalError);
    EXPECT_THROW(WordlineVthView(*chip, kBlock, kWl, 10, 5),
                 util::FatalError);
    EXPECT_THROW(WordlineVthView(*chip, kBlock, kWl, 0,
                                 chip->geometry().bitlines() + 1),
                 util::FatalError);
}

} // namespace
} // namespace flash::nand
