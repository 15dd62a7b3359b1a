/**
 * SenseKernel equivalence suite: the chunked kernel must reproduce the
 * per-cell reference bit for bit — toGaussianBatch vs toGaussian,
 * roundDac vs std::lround, and kernel-built snapshots and views vs
 * Chip::trueState / Chip::cellVth + std::lround — on TLC and QLC,
 * fresh and aged, with a sentinel overlay, explicit states and no read
 * noise, over chunk-edge column ranges.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "nandsim/sense_kernel.hh"
#include "nandsim/snapshot.hh"
#include "nandsim/vth_view.hh"
#include "test_support.hh"
#include "util/histogram.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace flash::nand
{
namespace
{

/** Hash whose toUnitUniform() is m * 2^-53. */
std::uint64_t
hashWithMantissa(std::uint64_t m)
{
    return m << 11;
}

/** Mantissa of the largest u = m * 2^-53 not above @p x. */
std::uint64_t
mantissaOf(double x)
{
    return static_cast<std::uint64_t>(std::ldexp(x, 53));
}

TEST(ToGaussianBatch, MatchesScalarAtEdges)
{
    constexpr double plow = 0.02425;
    constexpr double phigh = 1.0 - plow;
    constexpr double eps = 1e-12;
    std::vector<std::uint64_t> h = {0, ~0ULL, 1, ~0ULL - 1};
    for (const double edge : {plow, phigh, eps, 1.0 - eps, 0.5}) {
        const std::uint64_t m = mantissaOf(edge);
        for (std::uint64_t d = 0; d <= 4; ++d) {
            h.push_back(hashWithMantissa(m + d));
            h.push_back(hashWithMantissa(m - d));
            // Low 11 bits are ignored by the uniform map.
            h.push_back(hashWithMantissa(m + d) | 0x7ff);
        }
    }
    for (std::uint64_t i = 0; i < 5000; ++i)
        h.push_back(util::mix64(i));

    std::vector<double> z(h.size());
    util::toGaussianBatch(h.data(), z.data(), h.size());
    for (std::size_t i = 0; i < h.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(z[i]),
                  std::bit_cast<std::uint64_t>(util::toGaussian(h[i])))
            << "hash " << h[i];
    }
}

TEST(ToGaussianBatch, BothSidesOfTheTailSplitArePresent)
{
    // The edge hashes above straddle plow and phigh: one side takes the
    // central rational, the other the scalar tail path.
    constexpr double plow = 0.02425;
    const std::uint64_t m = mantissaOf(plow);
    EXPECT_LT(util::toUnitUniform(hashWithMantissa(m - 1)), plow);
    EXPECT_GE(util::toUnitUniform(hashWithMantissa(m + 1)), plow);
    const std::uint64_t mh = mantissaOf(1.0 - plow);
    EXPECT_LE(util::toUnitUniform(hashWithMantissa(mh - 1)), 1.0 - plow);
    EXPECT_GT(util::toUnitUniform(hashWithMantissa(mh + 1)), 1.0 - plow);
}

TEST(ToGaussianBatch, EmptyBatchIsANoOp)
{
    double z = 7.0;
    util::toGaussianBatch(nullptr, &z, 0);
    EXPECT_EQ(z, 7.0);
}

TEST(RoundDac, MatchesLroundAtHalves)
{
    std::vector<double> xs = {0.0, -0.0, 0.49999999999999994,
                              -0.49999999999999994, 0.5, -0.5,
                              std::nextafter(0.5, 0.0),
                              std::nextafter(-0.5, 0.0), 1e-300, -1e-300};
    for (int k = 0; k <= 1200; ++k) {
        for (const double sign : {1.0, -1.0}) {
            const double half = sign * (k + 0.5);
            xs.push_back(half);
            xs.push_back(std::nextafter(half, 0.0));
            xs.push_back(std::nextafter(half, sign * 1e9));
            xs.push_back(sign * k);
            xs.push_back(std::nextafter(sign * k, 0.0));
            xs.push_back(std::nextafter(sign * k, sign * 1e9));
        }
    }
    util::Rng rng(0x5e45e);
    for (int i = 0; i < 20000; ++i)
        xs.push_back(rng.uniform(-600.0, 900.0)); // negative Vth too
    // Large magnitudes within int: the fraction still has spare bits.
    for (const double big : {1073741823.5, -1073741823.5, 2147483646.5,
                             -2147483647.5}) {
        xs.push_back(big);
        xs.push_back(std::nextafter(big, 0.0));
    }
    for (const double x : xs) {
        const long want = std::lround(x);
        ASSERT_EQ(static_cast<long>(roundDac(x)), want) << "x " << x;
    }
}

// Kernel vs per-cell reference. Param: cell type, aged, read noise.
using KernelParam = std::tuple<CellType, bool, bool>;

class SenseKernelTest : public ::testing::TestWithParam<KernelParam>
{
  protected:
    static constexpr int kProcBlock = 0;
    static constexpr int kExplicitBlock = 1;
    static constexpr int kWl = 5;

    void
    SetUp() override
    {
        const auto [type, aged, noise] = GetParam();
        ChipGeometry g = test::mediumQlcGeometry();
        g.cellType = type;
        VoltageModelParams p = type == CellType::TLC ? tlcVoltageParams()
                                                     : qlcVoltageParams();
        if (!noise)
            p.readNoiseSigma = 0.0;
        chip_ = std::make_unique<Chip>(g, p, 4242);
        const int states = g.states();

        // Sentinel overlay over the OOB head, as the sentinel layout
        // programs it; an odd start so pairs straddle chunk edges.
        overlay_.start = g.dataBitlines + 3;
        overlay_.count = 301;
        overlay_.lowState = static_cast<std::uint8_t>(states / 2 - 1);
        overlay_.highState = static_cast<std::uint8_t>(states / 2);
        chip_->programBlock(kProcBlock, 77, overlay_);

        // Explicit states, with the overlay taking precedence.
        WordlineContent c;
        c.dataSeed = 99;
        c.sentinels = overlay_;
        util::Rng rng(31337);
        c.explicitStates.resize(static_cast<std::size_t>(g.bitlines()));
        for (auto &s : c.explicitStates)
            s = static_cast<std::uint8_t>(rng.uniformInt(
                static_cast<std::uint64_t>(states)));
        chip_->programWordline(kExplicitBlock, kWl, std::move(c));

        if (aged) {
            for (const int b : {kProcBlock, kExplicitBlock}) {
                chip_->setPeCycles(b, 5000);
                chip_->age(b, 8760.0, 25.0);
            }
        }
    }

    /** Column ranges around chunk and overlay edges. */
    std::vector<std::pair<int, int>>
    ranges() const
    {
        const int data = chip_->geometry().dataBitlines;
        const int all = chip_->geometry().bitlines();
        return {{0, 0},
                {0, 1},
                {0, 255},
                {0, 256},
                {0, 257},
                {37, 37 + 257},
                {1000, 1000 + 513},
                {data - 100, data + 400},
                {overlay_.start, overlay_.start + overlay_.count},
                {all - 1, all},
                {0, all}};
    }

    /** Per-cell reference DAC value of a column. */
    int
    referenceDac(const WordlineContext &ctx, int block, int col,
                 std::uint64_t seq) const
    {
        const int state = chip_->trueState(block, kWl, col);
        return static_cast<int>(std::lround(
            chip_->cellVth(ctx, block, kWl, col, state, seq)));
    }

    std::unique_ptr<Chip> chip_;
    SentinelOverlay overlay_;
};

TEST_P(SenseKernelTest, StatesAndStaticVthMatchChip)
{
    for (const int block : {kProcBlock, kExplicitBlock}) {
        const SenseKernel kernel(*chip_, block, kWl);
        for (const auto [b, e] : ranges()) {
            SenseKernel::forEachChunk(b, e, [&](int col, int n) {
                ASSERT_LE(n, SenseKernel::kChunk);
                std::uint8_t st[SenseKernel::kChunk];
                double vth[SenseKernel::kChunk];
                kernel.states(col, n, st);
                kernel.staticVth(col, n, st, vth);
                for (int i = 0; i < n; ++i) {
                    ASSERT_EQ(st[i], chip_->trueState(block, kWl, col + i))
                        << "block " << block << " col " << col + i;
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(vth[i]),
                              std::bit_cast<std::uint64_t>(
                                  chip_->staticCellVth(kernel.context(),
                                                       block, kWl, col + i,
                                                       st[i])))
                        << "block " << block << " col " << col + i;
                }
            });
        }
    }
}

TEST_P(SenseKernelTest, SnapshotHistogramsMatchPerCellReference)
{
    const int lo = chip_->model().vthMin();
    const int hi = chip_->model().vthMax();
    const int states = chip_->geometry().states();
    for (const int block : {kProcBlock, kExplicitBlock}) {
        const WordlineContext ctx = chip_->wordlineContext(block, kWl);
        for (const auto [b, e] : ranges()) {
            const std::uint64_t seq = 1000 + static_cast<std::uint64_t>(b);
            std::vector<util::Histogram> want(
                static_cast<std::size_t>(states), util::Histogram(lo, hi));
            for (int col = b; col < e; ++col) {
                want[chip_->trueState(block, kWl, col)].add(
                    referenceDac(ctx, block, col, seq));
            }
            const WordlineSnapshot snap(*chip_, block, kWl, seq, b, e);
            ASSERT_EQ(snap.cells(), static_cast<std::uint64_t>(e - b));
            for (int s = 0; s < states; ++s) {
                const auto &h = want[static_cast<std::size_t>(s)];
                ASSERT_EQ(snap.cellsInState(s), h.total())
                    << "block " << block << " [" << b << ", " << e << ")";
                for (int v = lo; v <= hi; ++v) {
                    ASSERT_EQ(snap.stateCellsInRange(s, v - 1, v),
                              h.binCount(v))
                        << "block " << block << " [" << b << ", " << e
                        << ") state " << s << " dac " << v;
                }
            }
        }
    }
}

TEST_P(SenseKernelTest, SenseDacMatchesPerCellReference)
{
    for (const int block : {kProcBlock, kExplicitBlock}) {
        const WordlineContext ctx = chip_->wordlineContext(block, kWl);
        for (const auto [b, e] : ranges()) {
            const WordlineVthView view(*chip_, block, kWl, b, e);
            for (const std::uint64_t seq : {3ULL, 0xfeedULL}) {
                const std::vector<int> dac = view.senseDac(seq);
                ASSERT_EQ(dac.size(), static_cast<std::size_t>(e - b));
                for (int col = b; col < e; ++col) {
                    const auto i = static_cast<std::size_t>(col - b);
                    ASSERT_EQ(view.state(i),
                              chip_->trueState(block, kWl, col));
                    ASSERT_EQ(dac[i], referenceDac(ctx, block, col, seq))
                        << "block " << block << " col " << col;
                }
            }
        }
    }
}

TEST_P(SenseKernelTest, RejectsChunksOutsideTheWordline)
{
    const SenseKernel kernel(*chip_, kProcBlock, kWl);
    const int all = chip_->geometry().bitlines();
    std::vector<std::uint8_t> st(SenseKernel::kChunk + 1);
    std::vector<double> vth(SenseKernel::kChunk + 1);
    for (const auto [col, n] : {std::pair{0, SenseKernel::kChunk + 1},
                                std::pair{-1, 4}, std::pair{all - 3, 4},
                                std::pair{0, -1}}) {
        EXPECT_THROW(kernel.states(col, n, st.data()), util::PanicError)
            << col << "+" << n;
        EXPECT_THROW(kernel.staticVth(col, n, st.data(), vth.data()),
                     util::PanicError);
        EXPECT_THROW(kernel.addReadNoise(col, n, 1, vth.data()),
                     util::PanicError);
    }
    EXPECT_NO_THROW(kernel.states(all - 3, 3, st.data()));
}

TEST_P(SenseKernelTest, NoiseFreeModelIgnoresReadSeq)
{
    const bool noise = std::get<2>(GetParam());
    const int all = chip_->geometry().bitlines();
    const WordlineVthView view(*chip_, kProcBlock, kWl, 0, all);
    const bool same = view.senseDac(1) == view.senseDac(2);
    EXPECT_EQ(same, !noise);
}

std::string
kernelParamName(const ::testing::TestParamInfo<KernelParam> &info)
{
    const auto [type, aged, noise] = info.param;
    return std::string(type == CellType::TLC ? "TLC" : "QLC")
        + (aged ? "_PE5000_1y" : "_fresh")
        + (noise ? "_noise" : "_noiseless");
}

INSTANTIATE_TEST_SUITE_P(
    Chips, SenseKernelTest,
    ::testing::Combine(::testing::Values(CellType::TLC, CellType::QLC),
                       ::testing::Bool(), ::testing::Bool()),
    kernelParamName);

} // namespace
} // namespace flash::nand
