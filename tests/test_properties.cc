#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/error_difference.hh"
#include "core/sentinel_layout.hh"
#include "nandsim/oracle.hh"
#include "nandsim/snapshot.hh"
#include "test_support.hh"

/**
 * @file
 * Cross-cutting property sweeps over (cell type x P/E x retention):
 * invariants the whole evaluation rests on, checked across the
 * condition grid with parameterized tests.
 */

namespace flash
{
namespace
{

using Condition = std::tuple<nand::CellType, std::uint32_t, double>;

class ConditionSweep : public ::testing::TestWithParam<Condition>
{
  protected:
    ConditionSweep()
        : chip(std::get<0>(GetParam()) == nand::CellType::TLC
                   ? test::mediumTlcGeometry()
                   : test::mediumQlcGeometry(),
               std::get<0>(GetParam()) == nand::CellType::TLC
                   ? nand::tlcVoltageParams()
                   : nand::qlcVoltageParams(),
               4242)
    {
        chip.setPeCycles(0, std::get<1>(GetParam()));
        chip.age(0, std::get<2>(GetParam()), 25.0);
    }

    nand::Chip chip;
    nand::OracleSearch oracle;
};

TEST_P(ConditionSweep, PageErrorCountsAgreeWithExactReads)
{
    // The histogram-based page error counting must equal the exact
    // cell-by-cell read under every condition and page.
    const auto v = chip.model().defaultVoltages();
    const std::uint64_t seq = 99;
    const auto snap = nand::WordlineSnapshot::dataRegion(chip, 0, 5, seq);
    for (int p = 0; p < chip.geometry().pagesPerWordline(); ++p) {
        EXPECT_EQ(snap.pageErrors(p, v),
                  test::exactPageErrors(chip, 0, 5, p, v, seq))
            << "page " << p;
    }
}

TEST_P(ConditionSweep, OptimalErrorsNeverExceedDefault)
{
    const auto v = chip.model().defaultVoltages();
    const auto snap = nand::WordlineSnapshot::dataRegion(chip, 0, 2, 1);
    const auto opts = oracle.optimalOffsets(snap, v);
    for (int k = 1; k < chip.geometry().states(); ++k) {
        EXPECT_LE(opts[static_cast<std::size_t>(k)].errors,
                  opts[static_cast<std::size_t>(k)].defaultErrors)
            << "k=" << k;
    }
}

TEST_P(ConditionSweep, MsbIsTheWorstPage)
{
    // The paper uses the MSB page as the worst case; it senses the
    // most boundaries, so its error count must dominate.
    const auto v = chip.model().defaultVoltages();
    const auto snap = nand::WordlineSnapshot::dataRegion(chip, 0, 7, 2);
    const int msb = chip.grayCode().msbPage();
    const auto msb_err = snap.pageErrors(msb, v);
    for (int p = 0; p < msb; ++p)
        EXPECT_GE(msb_err + 5, snap.pageErrors(p, v)) << "page " << p;
}

TEST_P(ConditionSweep, ErrorDifferenceTracksAging)
{
    // d must be ~0 when the optimum is at the default and negative
    // when the optimum has shifted down.
    core::SentinelConfig cfg;
    cfg.ratio = 0.01;
    const auto overlay = core::makeOverlay(chip.geometry(), cfg);
    chip.programBlock(0, 1, overlay);

    const int k_s = core::resolveSentinelBoundary(chip.geometry(), cfg);
    const auto v = chip.model().defaultVoltages();
    const auto sent = core::sentinelSnapshot(chip, 0, 3, overlay, 5);
    const double d = core::countSentinelErrors(
                         sent, k_s, v[static_cast<std::size_t>(k_s)])
                         .dRate();

    const auto data = nand::WordlineSnapshot::dataRegion(chip, 0, 3, 6);
    const int opt = oracle
                        .optimalBoundary(
                            data, k_s, v[static_cast<std::size_t>(k_s)])
                        .offset;
    if (opt < -8)
        EXPECT_LT(d, 0.0);
    if (std::abs(opt) <= 2)
        EXPECT_LT(std::abs(d), 0.05);
}

TEST_P(ConditionSweep, BoundaryErrorCurveIsBathtubShaped)
{
    // Errors vs offset must be decreasing left of the optimum and
    // increasing right of it (within sampling noise) - Fig 2's shape.
    const auto v = chip.model().defaultVoltages();
    const auto snap = nand::WordlineSnapshot::dataRegion(chip, 0, 9, 3);
    const int mid = chip.geometry().states() / 2;
    const int vd = v[static_cast<std::size_t>(mid)];
    const int opt = oracle.optimalBoundary(snap, mid, vd).offset;

    const auto at = [&](int off) {
        return snap.boundaryErrors(mid, vd + off);
    };
    EXPECT_GE(at(opt - 30) + 3, at(opt - 15));
    EXPECT_GE(at(opt - 15) + 3, at(opt));
    EXPECT_LE(at(opt), at(opt + 15) + 3);
    EXPECT_LE(at(opt + 15), at(opt + 30) + 3);
}

TEST_P(ConditionSweep, ReadNoiseIsZeroMeanAcrossReads)
{
    // Two reads of the same wordline differ only by sensing noise:
    // error counts must agree within a few percent, not drift.
    const auto v = chip.model().defaultVoltages();
    const int msb = chip.grayCode().msbPage();
    const auto a = nand::WordlineSnapshot::dataRegion(chip, 0, 4, 100);
    const auto b = nand::WordlineSnapshot::dataRegion(chip, 0, 4, 200);
    const auto ea = static_cast<double>(a.pageErrors(msb, v));
    const auto eb = static_cast<double>(b.pageErrors(msb, v));
    if (ea > 50.0)
        EXPECT_NEAR(eb / ea, 1.0, 0.25);
}

TEST_P(ConditionSweep, SnapshotIsDeterministicPerSeq)
{
    const auto v = chip.model().defaultVoltages();
    const auto a = nand::WordlineSnapshot::dataRegion(chip, 0, 6, 77);
    const auto b = nand::WordlineSnapshot::dataRegion(chip, 0, 6, 77);
    for (int k = 1; k < chip.geometry().states(); ++k) {
        EXPECT_EQ(a.boundaryErrors(k, v[static_cast<std::size_t>(k)]),
                  b.boundaryErrors(k, v[static_cast<std::size_t>(k)]));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Conditions, ConditionSweep,
    ::testing::Combine(::testing::Values(nand::CellType::TLC,
                                         nand::CellType::QLC),
                       ::testing::Values(0u, 1000u, 5000u),
                       ::testing::Values(24.0, 8760.0)),
    [](const ::testing::TestParamInfo<Condition> &info) {
        // No structured bindings here: the brackets' commas would
        // split the surrounding macro's arguments.
        const nand::CellType type = std::get<0>(info.param);
        const std::uint32_t pe = std::get<1>(info.param);
        const double hours = std::get<2>(info.param);
        return std::string(type == nand::CellType::TLC ? "TLC" : "QLC")
            + "_PE" + std::to_string(pe) + "_H"
            + std::to_string(static_cast<int>(hours));
    });

/** Aging monotonicity across the grid, as a separate sweep. */
class AgingMonotonicity
    : public ::testing::TestWithParam<nand::CellType>
{
};

TEST_P(AgingMonotonicity, ErrorsGrowWithRetention)
{
    nand::Chip chip(GetParam() == nand::CellType::TLC
                        ? test::mediumTlcGeometry()
                        : test::mediumQlcGeometry(),
                    GetParam() == nand::CellType::TLC
                        ? nand::tlcVoltageParams()
                        : nand::qlcVoltageParams(),
                    11);
    chip.setPeCycles(0, 3000);
    const auto v = chip.model().defaultVoltages();
    const int msb = chip.grayCode().msbPage();

    std::uint64_t prev = 0;
    int increases = 0, steps = 0;
    for (double hours : {24.0, 720.0, 4380.0, 8760.0, 26280.0}) {
        chip.refresh(0);
        chip.age(0, hours, 25.0);
        const auto snap =
            nand::WordlineSnapshot::dataRegion(chip, 0, 1, 1);
        const auto errors = snap.pageErrors(msb, v);
        if (steps > 0)
            increases += errors >= prev;
        prev = errors;
        ++steps;
    }
    EXPECT_EQ(increases, steps - 1); // strictly monotone in practice
}

TEST_P(AgingMonotonicity, ErrorsGrowWithWear)
{
    nand::Chip chip(GetParam() == nand::CellType::TLC
                        ? test::mediumTlcGeometry()
                        : test::mediumQlcGeometry(),
                    GetParam() == nand::CellType::TLC
                        ? nand::tlcVoltageParams()
                        : nand::qlcVoltageParams(),
                    13);
    const auto v = chip.model().defaultVoltages();
    const int msb = chip.grayCode().msbPage();

    std::uint64_t prev = 0;
    int increases = 0, steps = 0;
    for (std::uint32_t pe : {0u, 1000u, 3000u, 5000u, 8000u}) {
        chip.setPeCycles(0, pe);
        chip.refresh(0);
        chip.age(0, 8760.0, 25.0);
        const auto snap =
            nand::WordlineSnapshot::dataRegion(chip, 0, 1, 1);
        const auto errors = snap.pageErrors(msb, v);
        if (steps > 0)
            increases += errors >= prev;
        prev = errors;
        ++steps;
    }
    EXPECT_EQ(increases, steps - 1);
}

INSTANTIATE_TEST_SUITE_P(BothTypes, AgingMonotonicity,
                         ::testing::Values(nand::CellType::TLC,
                                           nand::CellType::QLC));

} // namespace
} // namespace flash
