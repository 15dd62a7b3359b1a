#include <gtest/gtest.h>

#include <memory>

#include "core/evaluator.hh"
#include "util/logging.hh"
#include "test_support.hh"

namespace flash::core
{
namespace
{

TEST(SuccessRule, BudgetComposition)
{
    // budget = opt + max(5% opt, 5% (def - opt)) + 2 + 0.6 sqrt(opt).
    // Optimal 100, default 1100: excess slack 50 dominates.
    EXPECT_DOUBLE_EQ(successBudget(100, 1100), 100 + 50 + 2 + 6);
    // Optimal 100, default 100: optimal-relative slack.
    EXPECT_DOUBLE_EQ(successBudget(100, 100), 100 + 5 + 2 + 6);
    // Default below optimal (degenerate): no excess.
    EXPECT_DOUBLE_EQ(successBudget(100, 50), 100 + 5 + 2 + 6);
}

TEST(SuccessRule, NoiseTermScalesWithSqrt)
{
    // Equal default and optimal: only the 5% optimal slack and the
    // absolute 2 sit beside the 0.6 sqrt(opt) noise term.
    EXPECT_DOUBLE_EQ(successBudget(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(successBudget(400, 400), 400 + 20 + 2 + 0.6 * 20.0);
    EXPECT_DOUBLE_EQ(successBudget(10000, 10000),
                     10000 + 500 + 2 + 0.6 * 100.0);
}

class EvaluatorTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        chip = std::make_unique<nand::Chip>(test::mediumQlcGeometry(),
                                            nand::qlcVoltageParams(), 888);
        CharOptions opt;
        opt.sentinel.ratio = 0.01; // medium geometry: keep ~370 sentinels
        opt.wordlineStride = 4;
        const FactoryCharacterizer characterizer(opt);
        tables = std::make_unique<Characterization>(characterizer.run(*chip));
        overlay = makeOverlay(chip->geometry(), opt.sentinel);

        chip->programBlock(1, 9, overlay);
        chip->setPeCycles(1, 3000);
        chip->age(1, 8760.0, 25.0);
    }

    static void
    TearDownTestSuite()
    {
        tables.reset();
        chip.reset();
    }

    static std::unique_ptr<nand::Chip> chip;
    static std::unique_ptr<Characterization> tables;
    static nand::SentinelOverlay overlay;
};

std::unique_ptr<nand::Chip> EvaluatorTest::chip;
std::unique_ptr<Characterization> EvaluatorTest::tables;
nand::SentinelOverlay EvaluatorTest::overlay;

TEST_F(EvaluatorTest, EvaluateBlockCountsSessions)
{
    ecc::EccModel ecc(ecc::EccConfig{16384, 120});
    VendorRetryPolicy vendor(chip->model());
    const auto stats = evaluateBlock(*chip, 1, vendor, ecc, overlay,
                                     LatencyParams{}, -1, 4);
    const int expect =
        (chip->geometry().wordlinesPerBlock() + 3) / 4;
    EXPECT_EQ(stats.sessions, expect);
    EXPECT_EQ(static_cast<int>(stats.retriesPerWordline.size()), expect);
    EXPECT_EQ(stats.retries.count(), static_cast<std::size_t>(expect));
    EXPECT_GT(stats.latencyUs.mean(), 0.0);
}

TEST_F(EvaluatorTest, EvaluateBlockRejectsBadStride)
{
    ecc::EccModel ecc(ecc::EccConfig{16384, 120});
    VendorRetryPolicy vendor(chip->model());
    EXPECT_THROW(evaluateBlock(*chip, 1, vendor, ecc, overlay,
                               LatencyParams{}, -1, 0),
                 util::FatalError);
}

TEST_F(EvaluatorTest, AccuracyRecordsAllBoundaries)
{
    const auto acc =
        evaluateWordlineAccuracy(*chip, 1, 0, *tables, overlay);
    ASSERT_EQ(static_cast<int>(acc.boundaries.size()), 16);
    for (int k = 1; k <= 15; ++k) {
        const auto &b = acc.boundaries[static_cast<std::size_t>(k)];
        // Aged block: the oracle must beat the default voltage.
        EXPECT_LE(b.errOptimal, b.errDefault) << "k=" << k;
    }
    EXPECT_LT(acc.dRate, 0.0); // retention: negative error difference
}

TEST_F(EvaluatorTest, InferredOffsetsTrackOracle)
{
    int close = 0, total = 0;
    for (int wl = 0; wl < 16; ++wl) {
        const auto acc =
            evaluateWordlineAccuracy(*chip, 1, wl, *tables, overlay);
        for (int k = 2; k <= 15; ++k) {
            const auto &b = acc.boundaries[static_cast<std::size_t>(k)];
            close += std::abs(b.offInferred - b.offOptimal) <= 10;
            ++total;
        }
    }
    EXPECT_GT(close, total * 3 / 4);
}

TEST_F(EvaluatorTest, CalibrationDoesNotHurtOverall)
{
    int infer_ok = 0, calib_ok = 0;
    for (int wl = 0; wl < 16; ++wl) {
        const auto acc =
            evaluateWordlineAccuracy(*chip, 1, wl, *tables, overlay);
        for (int k = 1; k <= 15; ++k) {
            infer_ok += acc.boundaries[static_cast<std::size_t>(k)].inferOk;
            calib_ok += acc.boundaries[static_cast<std::size_t>(k)].calibOk;
        }
    }
    EXPECT_GE(calib_ok + 5, infer_ok);
}

TEST_F(EvaluatorTest, CalibStepsBounded)
{
    for (int wl = 0; wl < 16; ++wl) {
        const auto acc =
            evaluateWordlineAccuracy(*chip, 1, wl, *tables, overlay);
        EXPECT_LE(acc.calibSteps, 5) << "wl " << wl;
    }
}

TEST_F(EvaluatorTest, SuccessfulInferenceSkipsCalibration)
{
    // A wordline whose inferred voltages are already within budget
    // runs no calibration steps and keeps the inferred offsets.
    int skipped = 0;
    for (int wl = 0; wl < 16; ++wl) {
        const auto acc =
            evaluateWordlineAccuracy(*chip, 1, wl, *tables, overlay);
        bool all_ok = true;
        for (int k = 1; k <= 15; ++k)
            all_ok &= acc.boundaries[static_cast<std::size_t>(k)].inferOk;
        if (!all_ok)
            continue;
        ++skipped;
        EXPECT_EQ(acc.calibSteps, 0) << "wl " << wl;
        for (int k = 1; k <= 15; ++k) {
            const auto &b = acc.boundaries[static_cast<std::size_t>(k)];
            EXPECT_EQ(b.offInferred, b.offCalibrated) << "wl " << wl;
        }
    }
    EXPECT_GT(skipped, 0);
}

} // namespace
} // namespace flash::core
