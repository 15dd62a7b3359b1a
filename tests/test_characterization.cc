#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "core/characterization.hh"
#include "core/error_difference.hh"
#include "nandsim/oracle.hh"
#include "nandsim/read_seq.hh"
#include "nandsim/snapshot.hh"
#include "test_support.hh"
#include "util/logging.hh"

namespace flash::core
{
namespace
{

class CharacterizationTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        chip = std::make_unique<nand::Chip>(test::mediumQlcGeometry(),
                                            nand::qlcVoltageParams(), 2024);
        CharOptions opt;
        opt.sentinel.ratio = 0.01; // medium geometry: keep ~370 sentinels
        opt.wordlineStride = 4;
        const FactoryCharacterizer characterizer(opt);
        tables = std::make_unique<Characterization>(characterizer.run(*chip));
    }

    static void
    TearDownTestSuite()
    {
        tables.reset();
        chip.reset();
    }

    static std::unique_ptr<nand::Chip> chip;
    static std::unique_ptr<Characterization> tables;
};

std::unique_ptr<nand::Chip> CharacterizationTest::chip;
std::unique_ptr<Characterization> CharacterizationTest::tables;

TEST_F(CharacterizationTest, ProducesValidFits)
{
    EXPECT_TRUE(tables->dToVopt.valid());
    EXPECT_EQ(tables->dToVopt.degree(), 5u);
    EXPECT_EQ(tables->sentinelBoundary, 8);
    EXPECT_GT(tables->samples, 100u);
    EXPECT_EQ(tables->dSamples.size(), tables->voptSamples.size());
}

TEST_F(CharacterizationTest, CrossVoltageFitsCoverAllBoundaries)
{
    ASSERT_EQ(static_cast<int>(tables->crossVoltage.size()), 16);
    for (int k = 1; k <= 15; ++k)
        EXPECT_GT(tables->crossVoltage[static_cast<std::size_t>(k)].n, 0u)
            << "k=" << k;
}

TEST_F(CharacterizationTest, SentinelBoundaryFitIsIdentity)
{
    const auto &f = tables->crossVoltage[8];
    EXPECT_NEAR(f.slope, 1.0, 1e-9);
    EXPECT_NEAR(f.intercept, 0.0, 1e-9);
    EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST_F(CharacterizationTest, SlopesFollowSensitivityProfile)
{
    // Boundaries below the sentinel shift more (slope > 1), above it
    // less (slope < 1) — the paper's Fig 8 structure.
    EXPECT_GT(tables->crossVoltage[2].slope, 1.0);
    EXPECT_LT(tables->crossVoltage[14].slope, 1.0);
    // Monotone-ish decline across programmed boundaries.
    EXPECT_GT(tables->crossVoltage[3].slope,
              tables->crossVoltage[12].slope);
}

TEST_F(CharacterizationTest, CorrelationsAreStrong)
{
    // Fig 8: strong linear correlation for programmed boundaries.
    for (int k = 2; k <= 15; ++k) {
        EXPECT_GT(tables->crossVoltage[static_cast<std::size_t>(k)].r2, 0.5)
            << "V" << k;
    }
}

TEST_F(CharacterizationTest, DFitIsUsable)
{
    EXPECT_LT(tables->dFitRmse, 10.0);
    // Negative d (down errors dominate) must map to negative offsets.
    EXPECT_LT(tables->dToVopt(-0.05), -5.0);
    // d = 0 maps near zero offset.
    EXPECT_NEAR(tables->dToVopt(0.0), 0.0, 8.0);
}

TEST_F(CharacterizationTest, BlockAgeRestoredAfterRun)
{
    const auto &age = chip->blockAge(0);
    EXPECT_EQ(age.peCycles, 0u);
    EXPECT_EQ(age.effRetentionHours, 0.0);
}

TEST_F(CharacterizationTest, BandsCarryTheirTemperature)
{
    CharOptions opt;
    opt.sentinel.ratio = 0.01;
    opt.wordlineStride = 4;
    opt.conditions = {{1000, 720.0}, {3000, 4380.0}, {5000, 8760.0}};
    const FactoryCharacterizer characterizer(opt);
    const auto bands = characterizer.runBands(*chip, {25.0, 80.0});
    ASSERT_EQ(bands.size(), 2u);
    EXPECT_EQ(bands[0].tempBandC, 25.0);
    EXPECT_EQ(bands[1].tempBandC, 80.0);
}

TEST_F(CharacterizationTest, SelectBandPicksNearest)
{
    std::vector<Characterization> bands(2);
    bands[0].tempBandC = 25.0;
    bands[1].tempBandC = 80.0;
    EXPECT_EQ(&selectBand(bands, 30.0), &bands[0]);
    EXPECT_EQ(&selectBand(bands, 70.0), &bands[1]);
    EXPECT_THROW(selectBand({}, 25.0), util::FatalError);
}

TEST_F(CharacterizationTest, OptionsValidated)
{
    CharOptions opt;
    opt.wordlineStride = 0;
    EXPECT_THROW(FactoryCharacterizer{opt}, util::FatalError);
}

TEST_F(CharacterizationTest, DefaultConditionGridNonEmpty)
{
    CharOptions opt;
    const FactoryCharacterizer characterizer(opt);
    EXPECT_GE(characterizer.options().conditions.size(), 8u);
}

/**
 * The sweep as it ran one condition at a time: age the block through
 * its mutators, then sense each sampled wordline's data region and
 * sentinel range at that age. An independent reference for run().
 */
Characterization
referenceRun(nand::Chip &chip, const CharOptions &options,
             double temp_band_c)
{
    // The options as the characterizer completes them (default grid).
    const CharOptions opt = FactoryCharacterizer(options).options();
    const auto &geom = chip.geometry();
    const int block = FactoryCharacterizer::kBlock;
    const int k_s = resolveSentinelBoundary(geom, opt.sentinel);
    const auto overlay = makeOverlay(geom, opt.sentinel);
    const auto defaults = chip.model().defaultVoltages();
    const int v_s = defaults[static_cast<std::size_t>(k_s)];
    const nand::OracleSearch oracle;
    chip.programBlock(block, chip.seed() ^ 0xc4a7ULL, overlay);
    const nand::BlockAge saved = chip.blockAge(block);

    Characterization out;
    out.sentinelBoundary = k_s;
    out.tempBandC = temp_band_c;
    const auto nb = static_cast<std::size_t>(geom.states());
    std::vector<std::vector<double>> xs(nb), ys(nb);
    for (std::size_t ci = 0; ci < opt.conditions.size(); ++ci) {
        const CharCondition &cond = opt.conditions[ci];
        chip.setPeCycles(block, cond.peCycles);
        chip.refresh(block);
        chip.age(block,
                 cond.effRetentionHours
                     / chip.model().arrheniusFactor(temp_band_c),
                 temp_band_c);
        const nand::ReadClock clock(
            util::hashCombine(FactoryCharacterizer::kReadStream, ci));
        for (int wl = 0; wl < geom.wordlinesPerBlock();
             wl += opt.wordlineStride) {
            nand::ReadSeq seq = clock.session(block, wl);
            const auto data =
                nand::WordlineSnapshot::dataRegion(chip, block, wl, seq.next());
            const auto sent =
                sentinelSnapshot(chip, block, wl, overlay, seq.next());
            const auto opts = oracle.optimalOffsets(data, defaults);
            const double opt_s = opts[static_cast<std::size_t>(k_s)].offset;
            out.dSamples.push_back(
                countSentinelErrors(sent, k_s, v_s).dRate());
            out.voptSamples.push_back(opt_s);
            for (int k = 1; k < geom.states(); ++k) {
                xs[static_cast<std::size_t>(k)].push_back(opt_s);
                ys[static_cast<std::size_t>(k)].push_back(
                    opts[static_cast<std::size_t>(k)].offset);
            }
        }
    }
    chip.setBlockAge(block, saved);

    out.samples = out.dSamples.size();
    out.dToVopt = util::polyfit(out.dSamples, out.voptSamples,
                                static_cast<std::size_t>(
                                    FactoryCharacterizer::kPolyDegree));
    out.dFitRmse =
        util::polyfitRmse(out.dToVopt, out.dSamples, out.voptSamples);
    out.crossVoltage.resize(nb);
    for (int k = 1; k < geom.states(); ++k) {
        out.crossVoltage[static_cast<std::size_t>(k)] = util::linearFit(
            xs[static_cast<std::size_t>(k)], ys[static_cast<std::size_t>(k)]);
    }
    return out;
}

/** Every fitted number and sample of two tables, bit for bit. */
void
expectSameTables(const Characterization &got, const Characterization &want,
                 const std::string &where)
{
    EXPECT_EQ(got.sentinelBoundary, want.sentinelBoundary) << where;
    EXPECT_EQ(got.tempBandC, want.tempBandC) << where;
    EXPECT_EQ(got.samples, want.samples) << where;
    EXPECT_EQ(got.dSamples, want.dSamples) << where;
    EXPECT_EQ(got.voptSamples, want.voptSamples) << where;
    EXPECT_EQ(got.dToVopt.coeffs(), want.dToVopt.coeffs()) << where;
    EXPECT_EQ(got.dToVopt.xShift(), want.dToVopt.xShift()) << where;
    EXPECT_EQ(got.dToVopt.xScale(), want.dToVopt.xScale()) << where;
    EXPECT_EQ(got.dFitRmse, want.dFitRmse) << where;
    ASSERT_EQ(got.crossVoltage.size(), want.crossVoltage.size()) << where;
    for (std::size_t k = 0; k < got.crossVoltage.size(); ++k) {
        const auto &g = got.crossVoltage[k];
        const auto &w = want.crossVoltage[k];
        EXPECT_EQ(g.slope, w.slope) << where << " V" << k;
        EXPECT_EQ(g.intercept, w.intercept) << where << " V" << k;
        EXPECT_EQ(g.r2, w.r2) << where << " V" << k;
        EXPECT_EQ(g.n, w.n) << where << " V" << k;
    }
}

/** A medium chip of @p type and sweep options that fit it. */
struct SweepSetup
{
    std::unique_ptr<nand::Chip> chip;
    CharOptions options;
};

SweepSetup
mediumSetup(nand::CellType type)
{
    SweepSetup s;
    const bool tlc = type == nand::CellType::TLC;
    s.chip = std::make_unique<nand::Chip>(
        tlc ? test::mediumTlcGeometry() : test::mediumQlcGeometry(),
        tlc ? nand::tlcVoltageParams() : nand::qlcVoltageParams(), 808);
    s.options.sentinel.ratio = 0.01;
    s.options.wordlineStride = 4;
    return s;
}

TEST(CharacterizationSweep, OnePassEqualsTheConditionByConditionLoop)
{
    for (const nand::CellType type :
         {nand::CellType::TLC, nand::CellType::QLC}) {
        SweepSetup s = mediumSetup(type);
        const Characterization want =
            referenceRun(*s.chip, s.options, 25.0);
        ASSERT_GT(want.samples, 100u);
        for (const int threads : {1, 4}) {
            s.options.threads = threads;
            const std::string where =
                std::string(type == nand::CellType::TLC ? "TLC" : "QLC")
                + " threads " + std::to_string(threads);
            expectSameTables(FactoryCharacterizer(s.options).run(*s.chip),
                             want, where);
        }
    }
}

TEST(CharacterizationSweep, BandsInOnePassEqualOneRunPerBand)
{
    for (const nand::CellType type :
         {nand::CellType::TLC, nand::CellType::QLC}) {
        SweepSetup s = mediumSetup(type);
        s.options.conditions = {{1000, 720.0}, {3000, 4380.0},
                                {5000, 8760.0}, {0, 24.0}};
        s.options.threads = 3;
        const FactoryCharacterizer characterizer(s.options);
        const std::vector<double> temps = {25.0, 55.0, 80.0};
        const auto bands = characterizer.runBands(*s.chip, temps);
        ASSERT_EQ(bands.size(), temps.size());
        for (std::size_t b = 0; b < temps.size(); ++b) {
            const std::string where =
                std::string(type == nand::CellType::TLC ? "TLC" : "QLC")
                + " band " + std::to_string(temps[b]);
            expectSameTables(bands[b], characterizer.run(*s.chip, temps[b]),
                             where);
            expectSameTables(bands[b],
                             referenceRun(*s.chip, s.options, temps[b]),
                             where + " (reference)");
        }
        // Bands differ only in their retention temperature, which
        // tilts the optimal offsets (the d samples of a medium chip's
        // few sentinels may round alike).
        EXPECT_NE(bands[0].voptSamples, bands[2].voptSamples);
    }
}

TEST(CharacterizationSweep, RejectsBadInputsBeforeTouchingTheChip)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double hours : {-1.0, nan, inf}) {
        CharOptions opt;
        opt.conditions = {{1000, 720.0}, {3000, hours}};
        EXPECT_THROW(FactoryCharacterizer{opt}, util::FatalError)
            << "hours " << hours;
    }

    SweepSetup s = mediumSetup(nand::CellType::QLC);
    nand::Chip &chip = *s.chip;
    const int block = FactoryCharacterizer::kBlock;
    chip.setPeCycles(block, 42);
    const nand::BlockAge age = chip.blockAge(block);
    const auto untouched = [&] {
        const nand::BlockAge now = chip.blockAge(block);
        return now.peCycles == age.peCycles
            && now.effRetentionHours == age.effRetentionHours
            && !chip.content(block, 0).sentinels.has_value();
    };
    const FactoryCharacterizer characterizer(s.options);
    for (const double temp : {nan, inf, -inf, -273.15, -400.0}) {
        EXPECT_THROW(characterizer.run(chip, temp), util::FatalError)
            << "band " << temp;
        EXPECT_TRUE(untouched()) << "band " << temp;
    }
    // A valid band after an invalid one is refused as a whole.
    EXPECT_THROW(characterizer.runBands(chip, {25.0, nan}),
                 util::FatalError);
    EXPECT_TRUE(untouched());
    // So close to absolute zero that no real time reaches the hours.
    EXPECT_THROW(characterizer.run(chip, -273.0), util::FatalError);
    EXPECT_TRUE(untouched());
}

TEST(CharacterizationSweep, ApplyConditionLandsOnTheCondition)
{
    SweepSetup s = mediumSetup(nand::CellType::TLC);
    nand::Chip &chip = *s.chip;
    chip.recordReads(0, 1000);
    const nand::BlockAge a =
        applyCondition(chip, 0, CharCondition{3000, 4380.0}, 80.0);
    EXPECT_EQ(a.peCycles, 3000u);
    EXPECT_NEAR(a.effRetentionHours, 4380.0, 1e-6);
    EXPECT_NEAR(a.retentionTempC, 80.0, 1e-9);
    EXPECT_EQ(a.readCount, 0u);
    EXPECT_EQ(chip.blockAge(0).effRetentionHours, a.effRetentionHours);
    const nand::BlockAge before = chip.blockAge(0);
    EXPECT_THROW(applyCondition(chip, 0, CharCondition{1, -5.0}, 25.0),
                 util::FatalError);
    EXPECT_EQ(chip.blockAge(0).peCycles, before.peCycles);
}

} // namespace
} // namespace flash::core
