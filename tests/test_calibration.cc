#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hh"
#include "core/error_difference.hh"
#include "core/sentinel_layout.hh"
#include "test_support.hh"
#include "util/logging.hh"

namespace flash::core
{
namespace
{

TEST(CalibratedOffset, TuneFurtherExtendsInSameDirection)
{
    EXPECT_EQ(calibratedOffset(-10, true, -0.02, 3), -13);
    EXPECT_EQ(calibratedOffset(10, true, 0.02, 3), 13);
}

TEST(CalibratedOffset, TuneBackRetreats)
{
    EXPECT_EQ(calibratedOffset(-10, false, -0.02, 3), -7);
    EXPECT_EQ(calibratedOffset(10, false, 0.02, 3), 7);
}

TEST(CalibratedOffset, ZeroOffsetUsesSignOfD)
{
    EXPECT_EQ(calibratedOffset(0, true, -0.02, 2), -2);
    EXPECT_EQ(calibratedOffset(0, true, 0.02, 2), 2);
    EXPECT_EQ(calibratedOffset(0, false, -0.02, 2), 2);
}

class StateChangeTest : public ::testing::Test
{
  protected:
    StateChangeTest()
        : chip(test::mediumQlcGeometry(), nand::qlcVoltageParams(), 404)
    {
        SentinelConfig cfg;
        cfg.ratio = 0.01; // medium geometry: keep ~370 sentinels
        overlay = makeOverlay(chip.geometry(), cfg);
        chip.programBlock(0, 3, overlay);
        chip.setPeCycles(0, 3000);
        chip.age(0, 8760.0, 25.0);
        vs = chip.model().defaultVoltage(8);
    }

    nand::Chip chip;
    nand::SentinelOverlay overlay;
    int vs = 0;
};

TEST_F(StateChangeTest, CountsWindowCells)
{
    const auto data = nand::WordlineSnapshot::dataRegion(chip, 0, 0, 1);
    const auto sent = sentinelSnapshot(chip, 0, 0, overlay, 2);
    const auto obs = observeStateChange(data, sent, 8, vs, vs - 20);
    EXPECT_EQ(obs.nca, data.cellsInVthRange(vs - 20, vs));
    EXPECT_EQ(obs.ncs, sent.cellsInVthRange(vs - 20, vs));
    EXPECT_GT(obs.nca, 0u);
}

TEST_F(StateChangeTest, ScalingUsesAdjacentStatePopulation)
{
    const auto data = nand::WordlineSnapshot::dataRegion(chip, 0, 0, 1);
    const auto sent = sentinelSnapshot(chip, 0, 0, overlay, 2);
    const auto obs = observeStateChange(data, sent, 8, vs, vs - 20);
    const double scale =
        static_cast<double>(data.cellsInState(7) + data.cellsInState(8))
        / static_cast<double>(sent.cells());
    EXPECT_NEAR(obs.scaledNcs, static_cast<double>(obs.ncs) * scale, 1e-9);
}

TEST_F(StateChangeTest, MatchedWindowsConverge)
{
    // For an unbiased wordline, the scaled sentinel count should be
    // statistically close to the data count (within 60% on most
    // wordlines), and the decision is Converged exactly when the two
    // agree within kMatchTolerance.
    int close = 0;
    for (int wl = 0; wl < 16; ++wl) {
        const auto data =
            nand::WordlineSnapshot::dataRegion(chip, 0, wl, 10 + wl);
        const auto sent =
            sentinelSnapshot(chip, 0, wl, overlay, 100 + wl);
        const auto obs = observeStateChange(data, sent, 8, vs, vs - 20);
        const double nca = static_cast<double>(obs.nca);
        close += std::abs(nca - obs.scaledNcs) <= 0.6 * obs.scaledNcs;
        const bool within = nca <= obs.scaledNcs * (1.0 + kMatchTolerance)
            && nca >= obs.scaledNcs * (1.0 - kMatchTolerance);
        EXPECT_EQ(obs.decision == CalibrationCase::Converged, within)
            << "wl " << wl;
    }
    EXPECT_GE(close, 12);
}

TEST_F(StateChangeTest, ThreeWayDecisionBoundaries)
{
    const auto data = nand::WordlineSnapshot::dataRegion(chip, 0, 0, 1);
    const auto sent = sentinelSnapshot(chip, 0, 0, overlay, 2);
    // Outside the tolerance band the decision follows the raw
    // comparison; inside it the estimate has converged.
    for (const int v : {vs - 5, vs - 20, vs - 40}) {
        const auto obs = observeStateChange(data, sent, 8, vs, v);
        const double nca = static_cast<double>(obs.nca);
        EXPECT_EQ(obs.tuneFurther, nca > obs.scaledNcs);
        if (nca > obs.scaledNcs * (1.0 + kMatchTolerance))
            EXPECT_EQ(obs.decision, CalibrationCase::TuneFurther);
        else if (nca < obs.scaledNcs * (1.0 - kMatchTolerance))
            EXPECT_EQ(obs.decision, CalibrationCase::TuneBack);
        else
            EXPECT_EQ(obs.decision, CalibrationCase::Converged);
    }
}

TEST_F(StateChangeTest, EmptySnapshotsFatal)
{
    const auto data = nand::WordlineSnapshot::dataRegion(chip, 0, 0, 1);
    const nand::WordlineSnapshot empty(chip, 0, 0, 1, 5, 5);
    EXPECT_THROW(observeStateChange(data, empty, 8, vs, vs - 10),
                 util::FatalError);
}

TEST(CalibrationParams, Defaults)
{
    CalibrationParams p;
    EXPECT_EQ(p.delta, 2);
    EXPECT_GT(kMatchTolerance, 0.0);
}

} // namespace
} // namespace flash::core
