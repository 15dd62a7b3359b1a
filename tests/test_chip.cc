#include <gtest/gtest.h>

#include <limits>

#include "nandsim/chip.hh"
#include "test_support.hh"
#include "util/logging.hh"

namespace flash::nand
{
namespace
{

class ChipTest : public ::testing::Test
{
  protected:
    ChipTest() : chip(tinyQlcGeometry(), qlcVoltageParams(), 77) {}

    Chip chip;
};

TEST_F(ChipTest, StartsFreshAndProgrammed)
{
    const BlockAge &a = chip.blockAge(0);
    EXPECT_EQ(a.peCycles, 0u);
    EXPECT_EQ(a.effRetentionHours, 0.0);
    // Procedural content exists for every wordline.
    EXPECT_NO_THROW(chip.trueState(0, 0, 0));
}

TEST_F(ChipTest, ProceduralStatesCoverAllStates)
{
    std::vector<int> counts(16, 0);
    for (int col = 0; col < chip.geometry().bitlines(); ++col)
        ++counts[chip.trueState(0, 0, col)];
    for (int s = 0; s < 16; ++s)
        EXPECT_GT(counts[s], 0) << "state " << s;
    // Roughly uniform: each ~ bitlines/16.
    const int expect = chip.geometry().bitlines() / 16;
    for (int s = 0; s < 16; ++s)
        EXPECT_NEAR(counts[s], expect, expect * 0.3);
}

TEST_F(ChipTest, ProceduralStatesDifferAcrossWordlines)
{
    int same = 0;
    const int n = 200;
    for (int col = 0; col < n; ++col)
        same += chip.trueState(0, 0, col) == chip.trueState(0, 1, col);
    EXPECT_LT(same, n / 2);
}

TEST_F(ChipTest, ExplicitStatesOverrideProcedural)
{
    WordlineContent c;
    c.explicitStates.assign(
        static_cast<std::size_t>(chip.geometry().bitlines()), 5);
    chip.programWordline(0, 3, c);
    EXPECT_EQ(chip.trueState(0, 3, 0), 5);
    EXPECT_EQ(chip.trueState(0, 3, 100), 5);
}

TEST_F(ChipTest, SentinelOverlayWins)
{
    SentinelOverlay o;
    o.start = chip.geometry().bitlines() - 10;
    o.count = 10;
    o.lowState = 7;
    o.highState = 8;
    WordlineContent c;
    c.dataSeed = 1;
    c.sentinels = o;
    chip.programWordline(0, 2, c);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(chip.trueState(0, 2, o.start + i), (i % 2) ? 8 : 7);
    }
}

TEST_F(ChipTest, ProgramBlockAppliesOverlayEverywhere)
{
    SentinelOverlay o;
    o.start = 0;
    o.count = 4;
    o.lowState = 3;
    o.highState = 4;
    chip.programBlock(1, 999, o);
    for (int wl = 0; wl < chip.geometry().wordlinesPerBlock(); ++wl) {
        EXPECT_EQ(chip.trueState(1, wl, 0), 3);
        EXPECT_EQ(chip.trueState(1, wl, 1), 4);
    }
}

TEST_F(ChipTest, InvalidProgramsRejected)
{
    WordlineContent c;
    c.explicitStates.assign(10, 0); // wrong size
    EXPECT_THROW(chip.programWordline(0, 0, c), util::FatalError);

    WordlineContent c2;
    c2.explicitStates.assign(
        static_cast<std::size_t>(chip.geometry().bitlines()), 16);
    EXPECT_THROW(chip.programWordline(0, 0, c2), util::FatalError);

    WordlineContent c3;
    SentinelOverlay bad;
    bad.start = chip.geometry().bitlines() - 2;
    bad.count = 10; // overruns
    c3.sentinels = bad;
    EXPECT_THROW(chip.programWordline(0, 0, c3), util::FatalError);
}

TEST_F(ChipTest, AddressChecks)
{
    EXPECT_THROW(chip.trueState(99, 0, 0), util::FatalError);
    EXPECT_THROW(chip.trueState(0, 9999, 0), util::FatalError);
    EXPECT_THROW(chip.trueState(0, 0, -1), util::FatalError);
    EXPECT_THROW(chip.blockAge(99), util::FatalError);
    EXPECT_THROW(chip.age(0, -1.0, 25.0), util::FatalError);
}

TEST_F(ChipTest, AgeRejectsNonFiniteAndImpossibleInputs)
{
    // A NaN fails `hours < 0.0` as well as `hours >= 0.0`; left
    // through, it would make every later sense of the block NaN.
    chip.setPeCycles(0, 1000);
    chip.age(0, 100.0, 55.0);
    const BlockAge before = chip.blockAge(0);
    const WordlineContext ctx = chip.wordlineContext(0, 3);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double hours : {nan, inf, -inf, -1.0, -0.0001}) {
        EXPECT_THROW(chip.age(0, hours, 25.0), util::FatalError)
            << "hours " << hours;
    }
    for (const double temp : {nan, inf, -inf, -273.15, -300.0, -1e300}) {
        EXPECT_THROW(chip.age(0, 10.0, temp), util::FatalError)
            << "temp " << temp;
    }
    // Effective hours past a double.
    EXPECT_THROW(chip.age(0, 1e306, 150.0), util::FatalError);
    // A rejected call leaves the block as it was.
    const BlockAge after = chip.blockAge(0);
    EXPECT_EQ(after.peCycles, before.peCycles);
    EXPECT_EQ(after.effRetentionHours, before.effRetentionHours);
    EXPECT_EQ(after.retentionTempC, before.retentionTempC);
    EXPECT_TRUE(chip.wordlineContext(0, 3) == ctx);
    // Just above absolute zero is a (frozen) temperature, and zero
    // hours are a no-op.
    EXPECT_NO_THROW(chip.age(0, 10.0, -273.0));
    EXPECT_NO_THROW(chip.age(0, 0.0, 25.0));
    EXPECT_EQ(chip.blockAge(0).effRetentionHours, before.effRetentionHours);
}

TEST_F(ChipTest, ContextAtAnAgeEqualsTheContextAfterSetBlockAge)
{
    BlockAge hot;
    hot.peCycles = 3000;
    hot.effRetentionHours = 4380.0;
    hot.retentionTempC = 80.0;
    hot.readCount = 250000;
    const BlockAge saved = chip.blockAge(1);
    for (const BlockAge &age : {BlockAge{}, hot}) {
        for (const int wl : {0, 5, chip.geometry().wordlinesPerBlock() - 1}) {
            const WordlineContext at = chip.wordlineContext(1, wl, age);
            chip.setBlockAge(1, age);
            EXPECT_TRUE(at == chip.wordlineContext(1, wl)) << "wl " << wl;
            chip.setBlockAge(1, saved);
        }
    }
    // The age changes only the per-state means and sigmas.
    const WordlineContext fresh = chip.wordlineContext(1, 5, BlockAge{});
    const WordlineContext aged = chip.wordlineContext(1, 5, hot);
    EXPECT_NE(fresh.mean, aged.mean);
    EXPECT_EQ(fresh.gradient, aged.gradient);
    EXPECT_EQ(fresh.tailThresh, aged.tailThresh);
    EXPECT_EQ(fresh.readNoiseSigma, aged.readNoiseSigma);
    EXPECT_THROW(chip.wordlineContext(99, 0, hot), util::FatalError);
}

TEST_F(ChipTest, SenseIsDeterministicPerReadSeq)
{
    const double a = chip.senseVth(0, 0, 5, 1);
    const double b = chip.senseVth(0, 0, 5, 1);
    EXPECT_DOUBLE_EQ(a, b);
    const double c = chip.senseVth(0, 0, 5, 2);
    EXPECT_NE(a, c); // fresh read noise
    // ... but only by read noise, not by a different static field.
    EXPECT_NEAR(a, c, 8.0 * chip.model().readNoiseSigma());
}

TEST_F(ChipTest, AgingShiftsSensedVoltagesDown)
{
    // Average sensed Vth of programmed cells drops with retention.
    double before = 0.0, after = 0.0;
    int n = 0;
    for (int col = 0; col < 500; ++col) {
        if (chip.trueState(0, 0, col) == 0)
            continue;
        before += chip.senseVth(0, 0, col, 1);
        ++n;
    }
    chip.setPeCycles(0, 3000);
    chip.age(0, 8760.0, 25.0);
    for (int col = 0; col < 500; ++col) {
        if (chip.trueState(0, 0, col) == 0)
            continue;
        after += chip.senseVth(0, 0, col, 1);
    }
    EXPECT_LT(after / n, before / n - 5.0);
}

TEST_F(ChipTest, ArrheniusAgingAcceleratesAtHighTemperature)
{
    chip.age(0, 1.0, 80.0);
    const double hot = chip.blockAge(0).effRetentionHours;
    chip.refresh(0);
    chip.age(0, 1.0, 25.0);
    const double room = chip.blockAge(0).effRetentionHours;
    EXPECT_GT(hot, 100.0 * room);
    EXPECT_NEAR(room, 1.0, 1e-9);
}

TEST_F(ChipTest, RetentionTempIsEffectiveWeightedMean)
{
    chip.age(0, 1.0, 80.0); // dominates effective hours
    chip.age(0, 1.0, 25.0);
    EXPECT_GT(chip.blockAge(0).retentionTempC, 70.0);
}

TEST_F(ChipTest, RefreshClearsAging)
{
    chip.age(0, 100.0, 25.0);
    chip.recordReads(0, 500);
    chip.refresh(0);
    EXPECT_EQ(chip.blockAge(0).effRetentionHours, 0.0);
    EXPECT_EQ(chip.blockAge(0).readCount, 0u);
    EXPECT_EQ(chip.blockAge(0).retentionTempC, 25.0);
}

TEST_F(ChipTest, FreshChipReadsAlmostCleanly)
{
    const auto v = chip.model().defaultVoltages();
    const double cells = chip.geometry().dataBitlines;
    for (int page = 0; page < chip.geometry().pagesPerWordline(); ++page) {
        const auto errors = test::exactPageErrors(chip, 0, 0, page, v, 123);
        EXPECT_LT(static_cast<double>(errors) / cells, 2e-3) << "page " << page;
    }
}

TEST_F(ChipTest, AgedChipHasManyMoreErrors)
{
    const auto v = chip.model().defaultVoltages();
    const int msb = chip.grayCode().msbPage();
    const std::uint64_t fresh = test::exactPageErrors(chip, 0, 0, msb, v, 5);
    chip.setPeCycles(0, 5000);
    chip.age(0, 8760.0, 25.0);
    const std::uint64_t aged = test::exactPageErrors(chip, 0, 0, msb, v, 6);
    EXPECT_GT(aged, 5 * (fresh + 1));
}

TEST_F(ChipTest, ReadBitsMatchesTrueBitsOnCleanCells)
{
    const auto v = chip.model().defaultVoltages();
    std::vector<std::uint8_t> read, truth;
    chip.readBits(0, 0, 0, v, 9, 0, 256, read);
    chip.trueBits(0, 0, 0, 0, 256, truth);
    ASSERT_EQ(read.size(), truth.size());
    int diff = 0;
    for (std::size_t i = 0; i < read.size(); ++i)
        diff += read[i] != truth[i];
    EXPECT_LE(diff, 2); // fresh chip: almost no errors
}

TEST_F(ChipTest, TrueBitsFollowGrayCode)
{
    std::vector<std::uint8_t> bits;
    chip.trueBits(0, 0, 1, 0, 64, bits);
    for (int col = 0; col < 64; ++col) {
        const int s = chip.trueState(0, 0, col);
        EXPECT_EQ(bits[static_cast<std::size_t>(col)],
                  chip.grayCode().bit(s, 1));
    }
}

TEST_F(ChipTest, SensingIsPureInReadSeq)
{
    // The chip holds no read-order state: the same (address, seq)
    // always senses the same value, and distinct seqs redraw noise.
    const auto v = chip.senseVth(0, 0, 0, 101);
    EXPECT_DOUBLE_EQ(chip.senseVth(0, 0, 0, 101), v);
    EXPECT_NE(chip.senseVth(0, 0, 0, 102), v);
}

TEST_F(ChipTest, SameSeedSameChip)
{
    Chip other(tinyQlcGeometry(), qlcVoltageParams(), 77);
    for (int col = 0; col < 100; ++col) {
        EXPECT_EQ(chip.trueState(0, 0, col), other.trueState(0, 0, col));
        EXPECT_DOUBLE_EQ(chip.senseVth(0, 0, col, 4),
                         other.senseVth(0, 0, col, 4));
    }
}

TEST_F(ChipTest, DifferentSeedDifferentChip)
{
    Chip other(tinyQlcGeometry(), qlcVoltageParams(), 78);
    int same = 0;
    for (int col = 0; col < 100; ++col)
        same += chip.trueState(0, 0, col) == other.trueState(0, 0, col);
    EXPECT_LT(same, 30);
}

TEST_F(ChipTest, WordlineContextMatchesModel)
{
    chip.setPeCycles(0, 1000);
    chip.age(0, 720.0, 25.0);
    const WordlineContext ctx = chip.wordlineContext(0, 5);
    ASSERT_EQ(static_cast<int>(ctx.mean.size()), 16);
    for (int s = 1; s < 16; ++s)
        EXPECT_GT(ctx.mean[static_cast<std::size_t>(s)],
                  ctx.mean[static_cast<std::size_t>(s - 1)]);
    EXPECT_GT(ctx.readNoiseSigma, 0.0);
}

TEST_F(ChipTest, ReadPageRejectsBadArguments)
{
    const auto v = chip.model().defaultVoltages();
    std::vector<std::uint8_t> bits;
    EXPECT_THROW(chip.readBits(0, 0, 7, v, 1, 0, 10, bits),
                 util::FatalError);
    EXPECT_THROW(chip.readBits(0, 0, -1, v, 1, 0, 10, bits),
                 util::FatalError);
    std::vector<int> short_v{0, 1};
    EXPECT_THROW(chip.readBits(0, 0, 0, short_v, 1, 0, 10, bits),
                 util::FatalError);
    EXPECT_THROW(chip.readBits(0, 0, 0, v, 1, -1, 10, bits),
                 util::FatalError);
    EXPECT_THROW(chip.readBits(0, 0, 0, v, 1, 10, 5, bits),
                 util::FatalError);
    EXPECT_THROW(chip.readBits(0, 0, 0, v, 1, 0,
                               chip.geometry().bitlines() + 1, bits),
                 util::FatalError);
    EXPECT_NO_THROW(chip.readBits(0, 0, 0, v, 1, 0,
                                  chip.geometry().bitlines(), bits));
}

} // namespace
} // namespace flash::nand
