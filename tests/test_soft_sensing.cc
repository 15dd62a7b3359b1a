#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "ecc/soft_sensing.hh"
#include "test_support.hh"
#include "util/logging.hh"

namespace flash::ecc
{
namespace
{

class SoftSensingTest : public ::testing::Test
{
  protected:
    SoftSensingTest()
        : chip(nand::tinyQlcGeometry(), nand::qlcVoltageParams(), 21)
    {
        chip.setPeCycles(0, 2000);
        chip.age(0, 4380.0, 25.0);
        voltages = chip.model().defaultVoltages();
    }

    nand::Chip chip;
    std::vector<int> voltages;
};

TEST_F(SoftSensingTest, SenseOpCounts)
{
    EXPECT_EQ(senseOps(SensingMode::Hard), 1);
    EXPECT_EQ(senseOps(SensingMode::Soft2Bit), 3);
    EXPECT_EQ(senseOps(SensingMode::Soft3Bit), 7);
}

TEST_F(SoftSensingTest, ModeNames)
{
    EXPECT_STREQ(sensingModeName(SensingMode::Hard), "hard");
    EXPECT_STREQ(sensingModeName(SensingMode::Soft2Bit), "2-bit soft");
    EXPECT_STREQ(sensingModeName(SensingMode::Soft3Bit), "3-bit soft");
}

TEST_F(SoftSensingTest, OutputSizesMatchRange)
{
    const auto r = softReadRange(chip, 0, 0, 0, voltages,
                                 SensingMode::Soft2Bit, 6.0, 100, 0, 512);
    EXPECT_EQ(r.hardBits.size(), 512u);
    EXPECT_EQ(r.llr.size(), 512u);
}

TEST_F(SoftSensingTest, LlrSignMatchesHardBit)
{
    for (auto mode : {SensingMode::Hard, SensingMode::Soft2Bit,
                      SensingMode::Soft3Bit}) {
        const auto r = softReadRange(chip, 0, 1, 0, voltages, mode, 6.0,
                                     200, 0, 256);
        for (std::size_t i = 0; i < r.llr.size(); ++i) {
            if (r.hardBits[i])
                EXPECT_LT(r.llr[i], 0.0f);
            else
                EXPECT_GT(r.llr[i], 0.0f);
        }
    }
}

TEST_F(SoftSensingTest, HardModeHasConstantMagnitude)
{
    const auto r = softReadRange(chip, 0, 0, 0, voltages,
                                 SensingMode::Hard, 6.0, 300, 0, 256);
    for (float l : r.llr)
        EXPECT_FLOAT_EQ(std::abs(l), 2.0f);
}

TEST_F(SoftSensingTest, SoftModesProduceMultipleMagnitudes)
{
    const auto r = softReadRange(chip, 0, 0, 3, voltages,
                                 SensingMode::Soft3Bit, 6.0, 400, 0, 4096);
    std::set<float> mags;
    for (float l : r.llr)
        mags.insert(std::abs(l));
    EXPECT_GE(mags.size(), 3u);
}

TEST_F(SoftSensingTest, CellsFarFromThresholdsGetHighConfidence)
{
    const auto r = softReadRange(chip, 0, 0, 0, voltages,
                                 SensingMode::Soft2Bit, 6.0, 500, 0, 4096);
    // The vast majority of cells sit far from the single LSB
    // threshold and should carry the maximum magnitude (4.5).
    int high = 0;
    for (float l : r.llr)
        high += std::abs(std::abs(l) - 4.5f) < 1e-3f;
    EXPECT_GT(high, static_cast<int>(r.llr.size() * 3 / 4));
}

TEST_F(SoftSensingTest, MisreadCellsTendToBeLowConfidence)
{
    const auto r = softReadRange(chip, 0, 0, 0, voltages,
                                 SensingMode::Soft3Bit, 6.0, 600, 0,
                                 chip.geometry().dataBitlines);
    std::vector<std::uint8_t> truth;
    chip.trueBits(0, 0, 0, 0, chip.geometry().dataBitlines, truth);

    double err_mag = 0.0, ok_mag = 0.0;
    int errs = 0, oks = 0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        if (r.hardBits[i] != truth[i]) {
            err_mag += std::abs(r.llr[i]);
            ++errs;
        } else {
            ok_mag += std::abs(r.llr[i]);
            ++oks;
        }
    }
    ASSERT_GT(errs, 0);
    ASSERT_GT(oks, 0);
    // Misread cells sit near thresholds: lower average confidence.
    EXPECT_LT(err_mag / errs, ok_mag / oks);
}

TEST_F(SoftSensingTest, DeterministicForSameReadSeqBase)
{
    const auto a = softReadRange(chip, 0, 0, 0, voltages,
                                 SensingMode::Soft2Bit, 6.0, 700, 0, 128);
    const auto b = softReadRange(chip, 0, 0, 0, voltages,
                                 SensingMode::Soft2Bit, 6.0, 700, 0, 128);
    EXPECT_EQ(a.hardBits, b.hardBits);
    EXPECT_EQ(a.llr, b.llr);
}

TEST_F(SoftSensingTest, MatchesPerCellReference)
{
    // Block 1 carries a sentinel overlay in its OOB tail, so the last
    // range senses sentinel cells too.
    const auto &geom = chip.geometry();
    nand::SentinelOverlay overlay;
    overlay.start = geom.dataBitlines + 5;
    overlay.count = 301;
    overlay.lowState = static_cast<std::uint8_t>(geom.states() / 2 - 1);
    overlay.highState = static_cast<std::uint8_t>(geom.states() / 2);
    chip.programBlock(1, 55, overlay);
    chip.setPeCycles(1, 2000);
    chip.age(1, 4380.0, 25.0);

    constexpr int kWl = 2;
    constexpr double kDelta = 6.0;
    const std::pair<int, int> ranges[] = {
        {0, geom.dataBitlines}, {100, 700}, {3000, geom.bitlines()}};
    for (const auto mode : {SensingMode::Hard, SensingMode::Soft2Bit,
                            SensingMode::Soft3Bit}) {
        const int half = (senseOps(mode) - 1) / 2;
        for (const auto [b, e] : ranges) {
            for (int page = 0; page < geom.pagesPerWordline(); ++page) {
                const std::uint64_t base =
                    1000 + static_cast<std::uint64_t>(b + page);
                SCOPED_TRACE(std::string(sensingModeName(mode)) + " ["
                             + std::to_string(b) + ", " + std::to_string(e)
                             + ") page " + std::to_string(page));
                const auto r = softReadRange(chip, 1, kWl, page, voltages,
                                             mode, kDelta, base, b, e);

                // Center sense at base, then the shifted senses in
                // order -half..-1, +1..+half at base + 1...
                std::vector<std::uint8_t> hard, bits;
                chip.readBits(1, kWl, page, voltages, base, b, e, hard);
                ASSERT_EQ(r.hardBits, hard);
                std::vector<int> agree(hard.size(), 0);
                std::uint64_t seq = base;
                for (int s = -half; s <= half; ++s) {
                    if (s == 0)
                        continue;
                    std::vector<int> shifted = voltages;
                    for (std::size_t k = 1; k < shifted.size(); ++k)
                        shifted[k] += static_cast<int>(s * kDelta);
                    chip.readBits(1, kWl, page, shifted, ++seq, b, e, bits);
                    for (std::size_t i = 0; i < bits.size(); ++i)
                        agree[i] += bits[i] == hard[i];
                }

                ASSERT_EQ(r.llr.size(), hard.size());
                std::map<int, float> mag_of;
                for (std::size_t i = 0; i < hard.size(); ++i) {
                    const float mag = std::abs(r.llr[i]);
                    ASSERT_EQ(r.llr[i] < 0.0f, hard[i] == 1) << "cell " << i;
                    const auto [it, fresh] = mag_of.emplace(agree[i], mag);
                    ASSERT_EQ(it->second, mag)
                        << "cell " << i << " agreement " << agree[i];
                }
                float prev = 0.0f;
                for (const auto [count, mag] : mag_of) {
                    EXPECT_GT(mag, prev) << "agreement " << count;
                    prev = mag;
                }
                if (mode != SensingMode::Hard && b == 0)
                    EXPECT_GE(mag_of.size(), 2u);
            }
        }
    }
}

TEST_F(SoftSensingTest, RejectsBadArguments)
{
    const int all = chip.geometry().bitlines();
    const auto read = [&](int page, const std::vector<int> &v, int b,
                          int e) {
        return softReadRange(chip, 0, 0, page, v, SensingMode::Soft3Bit,
                             6.0, 1, b, e);
    };
    EXPECT_THROW(read(0, voltages, -1, 10), util::FatalError);
    EXPECT_THROW(read(0, voltages, 10, 5), util::FatalError);
    EXPECT_THROW(read(0, voltages, 0, all + 1), util::FatalError);
    EXPECT_THROW(read(-1, voltages, 0, 10), util::FatalError);
    EXPECT_THROW(read(chip.geometry().pagesPerWordline(), voltages, 0, 10),
                 util::FatalError);
    const std::vector<int> short_v(voltages.begin(), voltages.end() - 1);
    EXPECT_THROW(read(0, short_v, 0, 10), util::FatalError);
    EXPECT_EQ(read(0, voltages, all - 3, all).hardBits.size(), 3u);
    EXPECT_TRUE(read(0, voltages, 7, 7).llr.empty());
}

} // namespace
} // namespace flash::ecc
