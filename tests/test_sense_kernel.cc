/**
 * SenseKernel equivalence suite: the chunked kernel must reproduce the
 * per-cell reference bit for bit — toGaussianBatch vs toGaussian,
 * roundDac vs std::lround, and kernel-built snapshots and chunk steps
 * vs Chip::trueState / Chip::cellVth + std::lround — on TLC and QLC,
 * fresh and aged, with a sentinel overlay, explicit states and no read
 * noise, over chunk-edge column ranges, at every CPU level the host
 * can execute. The compact snapshot must answer every count query as
 * a full-range histogram of the same cells does, and a multi-age sweep
 * must give, age for age, the snapshot a sense at that age gives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/characterization.hh"
#include "core/sentinel_layout.hh"
#include "nandsim/sense_kernel.hh"
#include "nandsim/snapshot.hh"
#include "test_support.hh"
#include "util/cpu_level.hh"
#include "util/gaussian_batch.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

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
    // Every level this CPU runs, not only the selected one.
    for (const util::CpuLevel level : util::compiledCpuLevels()) {
        if (!util::cpuLevelSupported(level))
            continue;
        std::vector<double> zl(h.size());
        util::toGaussianBatch(h.data(), zl.data(), h.size(), level);
        for (std::size_t i = 0; i < h.size(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(zl[i]),
                      std::bit_cast<std::uint64_t>(z[i]))
                << util::cpuLevelName(level) << " hash " << h[i];
        }
    }
}

TEST(ToGaussianBatch, IntegerTailTestMatchesTheUniformCompare)
{
    // isTail() compares the 53-bit mantissa against integer bounds;
    // toGaussian() compares u = toUnitUniform(h) against plow/phigh.
    constexpr double plow = 0.02425;
    constexpr double phigh = 1.0 - plow;
    for (const double edge : {plow, phigh, 0.5, 1e-12, 1.0 - 1e-12}) {
        const std::uint64_t m = mantissaOf(edge);
        for (std::uint64_t d = 0; d <= 8; ++d) {
            for (const std::uint64_t mm : {m + d, m - d}) {
                const std::uint64_t h = hashWithMantissa(mm) | (d * 0x111);
                const double u = util::toUnitUniform(h);
                EXPECT_EQ(util::gaussian::isTail(h),
                          u < plow || u > phigh)
                    << "mantissa " << mm;
            }
        }
    }
    EXPECT_TRUE(util::gaussian::isTail(0));
    EXPECT_TRUE(util::gaussian::isTail(~0ULL));
    EXPECT_FALSE(util::gaussian::isTail(hashWithMantissa(1ULL << 52)));
}

TEST(ToGaussianBatch, RejectsALevelTheCpuCannotRun)
{
    for (const util::CpuLevel level : util::compiledCpuLevels()) {
        if (util::cpuLevelSupported(level))
            continue;
        double z = 0.0;
        const std::uint64_t h = 1;
        EXPECT_THROW(util::toGaussianBatch(&h, &z, 1, level),
                     util::FatalError);
    }
}

TEST(CpuLevels, SelectedLevelIsTheWidestSupported)
{
    const util::CpuLevel selected = util::selectedCpuLevel();
    EXPECT_TRUE(util::cpuLevelSupported(selected));
    EXPECT_TRUE(util::cpuLevelSupported(util::CpuLevel::Baseline));
    std::string ran;
    for (const util::CpuLevel level : util::compiledCpuLevels()) {
        if (util::cpuLevelSupported(level)) {
            EXPECT_LE(static_cast<int>(level), static_cast<int>(selected));
            ran += std::string(ran.empty() ? "" : ", ")
                + util::cpuLevelName(level);
        } else {
            EXPECT_GT(static_cast<int>(level), static_cast<int>(selected));
        }
    }
    std::cout << "[ LEVELS   ] selected " << util::cpuLevelName(selected)
              << "; this CPU runs: " << ran << "\n";
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

/**
 * Reference counts of one state's DAC values over [lo, hi], one
 * counter per value and clamped on add: the full-range counts whose
 * answers a compact snapshot must reproduce.
 */
class DacCounts
{
  public:
    DacCounts(int lo, int hi)
        : lo_(lo), hi_(hi), bins_(static_cast<std::size_t>(hi - lo + 1))
    {
    }

    void
    add(int v)
    {
        ++bins_[static_cast<std::size_t>(std::clamp(v, lo_, hi_) - lo_)];
        ++total_;
        atOrBelow_.clear();
    }

    int lo() const { return lo_; }
    int hi() const { return hi_; }
    std::uint64_t total() const { return total_; }

    std::uint64_t
    binCount(int v) const
    {
        return bins_[static_cast<std::size_t>(std::clamp(v, lo_, hi_) - lo_)];
    }

    /** Count of values <= v: 0 below lo(), total() from hi() up. */
    std::uint64_t
    countAtOrBelow(int v) const
    {
        if (v < lo_)
            return 0;
        if (v >= hi_)
            return total_;
        if (atOrBelow_.empty()) {
            atOrBelow_.resize(bins_.size());
            std::uint64_t sum = 0;
            for (std::size_t i = 0; i < bins_.size(); ++i)
                atOrBelow_[i] = sum += bins_[i];
        }
        return atOrBelow_[static_cast<std::size_t>(v - lo_)];
    }

    std::uint64_t countAbove(int v) const { return total_ - countAtOrBelow(v); }

  private:
    int lo_, hi_;
    std::uint64_t total_ = 0;
    std::vector<std::uint64_t> bins_;
    mutable std::vector<std::uint64_t> atOrBelow_; ///< built on query
};

/** A chip with a procedural and an explicit-state block, both overlaid. */
class ChipFixture : public ::testing::Test
{
  protected:
    static constexpr int kProcBlock = 0;
    static constexpr int kExplicitBlock = 1;
    static constexpr int kWl = 5;

    void
    build(CellType type, bool aged, bool noise)
    {
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

    /** Per-state full-range counts of the per-cell reference. */
    std::vector<DacCounts>
    referenceHistograms(int block, int b, int e, std::uint64_t seq) const
    {
        const WordlineContext ctx = chip_->wordlineContext(block, kWl);
        std::vector<DacCounts> want(
            static_cast<std::size_t>(chip_->geometry().states()),
            DacCounts(chip_->model().vthMin(), chip_->model().vthMax()));
        for (int col = b; col < e; ++col) {
            want[chip_->trueState(block, kWl, col)].add(
                referenceDac(ctx, block, col, seq));
        }
        return want;
    }

    std::unique_ptr<Chip> chip_;
    SentinelOverlay overlay_;
};

/** Assert @p snap holds the reference counts at every bin. */
void
expectSameBins(const WordlineSnapshot &snap,
               const std::vector<DacCounts> &want,
               const std::string &where)
{
    for (int s = 0; s < snap.states(); ++s) {
        const auto &h = want[static_cast<std::size_t>(s)];
        ASSERT_EQ(snap.cellsInState(s), h.total()) << where;
        for (int v = h.lo(); v <= h.hi(); ++v) {
            ASSERT_EQ(snap.stateCellsInRange(s, v - 1, v), h.binCount(v))
                << where << " state " << s << " dac " << v;
        }
    }
}

/**
 * One sense of columns [b, e) as DAC values, from the kernel's chunk
 * steps: states, static Vth, read noise, roundDac.
 */
std::vector<int>
senseDac(const SenseKernel &kernel, int b, int e, std::uint64_t seq)
{
    std::vector<int> dac;
    SenseKernel::forEachChunk(b, e, [&](int col, int n) {
        std::uint8_t st[SenseKernel::kChunk];
        double vth[SenseKernel::kChunk];
        kernel.states(col, n, st);
        kernel.staticVth(col, n, st, vth);
        kernel.addReadNoise(col, n, seq, vth);
        for (int i = 0; i < n; ++i)
            dac.push_back(roundDac(vth[i]));
    });
    return dac;
}

// Kernel vs per-cell reference. Param: cell type, aged, read noise.
using KernelParam = std::tuple<CellType, bool, bool>;

class SenseKernelTest : public ChipFixture,
                        public ::testing::WithParamInterface<KernelParam>
{
  protected:
    void
    SetUp() override
    {
        const auto [type, aged, noise] = GetParam();
        build(type, aged, noise);
    }
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
    for (const int block : {kProcBlock, kExplicitBlock}) {
        for (const auto [b, e] : ranges()) {
            const std::uint64_t seq = 1000 + static_cast<std::uint64_t>(b);
            const WordlineSnapshot snap(*chip_, block, kWl, seq, b, e);
            ASSERT_EQ(snap.cells(), static_cast<std::uint64_t>(e - b));
            expectSameBins(snap, referenceHistograms(block, b, e, seq),
                           "block " + std::to_string(block) + " ["
                               + std::to_string(b) + ", "
                               + std::to_string(e) + ")");
        }
    }
}

TEST_P(SenseKernelTest, SenseDacMatchesPerCellReference)
{
    for (const int block : {kProcBlock, kExplicitBlock}) {
        const SenseKernel kernel(*chip_, block, kWl);
        const WordlineContext ctx = chip_->wordlineContext(block, kWl);
        for (const auto [b, e] : ranges()) {
            for (const std::uint64_t seq : {3ULL, 0xfeedULL}) {
                const std::vector<int> dac = senseDac(kernel, b, e, seq);
                ASSERT_EQ(dac.size(), static_cast<std::size_t>(e - b));
                for (int col = b; col < e; ++col) {
                    const auto i = static_cast<std::size_t>(col - b);
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
    const SenseKernel kernel(*chip_, kProcBlock, kWl);
    const bool same =
        senseDac(kernel, 0, all, 1) == senseDac(kernel, 0, all, 2);
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

// Every compiled CPU level vs the per-cell reference. Param: level,
// cell type, aged, read noise. Levels this CPU cannot run are skipped.
using LevelParam = std::tuple<util::CpuLevel, CellType, bool, bool>;

class SenseLevelTest : public ChipFixture,
                       public ::testing::WithParamInterface<LevelParam>
{
  protected:
    void
    SetUp() override
    {
        const auto [lvl, type, aged, noise] = GetParam();
        if (!util::cpuLevelSupported(lvl)) {
            GTEST_SKIP() << "this CPU cannot run "
                         << util::cpuLevelName(lvl);
        }
        build(type, aged, noise);
    }

    util::CpuLevel level() const { return std::get<0>(GetParam()); }
};

TEST_P(SenseLevelTest, StepsAndSnapshotMatchPerCellReference)
{
    for (const int block : {kProcBlock, kExplicitBlock}) {
        const SenseKernel kernel(*chip_, block, kWl, level());
        const WordlineContext ctx = chip_->wordlineContext(block, kWl);
        for (const auto [b, e] : ranges()) {
            const std::uint64_t seq = 2000 + static_cast<std::uint64_t>(b);
            SenseKernel::forEachChunk(b, e, [&](int col, int n) {
                std::uint8_t st[SenseKernel::kChunk];
                double vth[SenseKernel::kChunk];
                kernel.states(col, n, st);
                kernel.staticVth(col, n, st, vth);
                for (int i = 0; i < n; ++i) {
                    ASSERT_EQ(st[i], chip_->trueState(block, kWl, col + i));
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(vth[i]),
                              std::bit_cast<std::uint64_t>(
                                  chip_->staticCellVth(ctx, block, kWl,
                                                       col + i, st[i])))
                        << "block " << block << " col " << col + i;
                }
                kernel.addReadNoise(col, n, seq, vth);
                for (int i = 0; i < n; ++i) {
                    ASSERT_EQ(roundDac(vth[i]),
                              referenceDac(ctx, block, col + i, seq))
                        << "block " << block << " col " << col + i;
                }
            });
            const WordlineSnapshot snap(kernel, seq, b, e);
            const std::string where = std::string(util::cpuLevelName(level()))
                + " block " + std::to_string(block) + " ["
                + std::to_string(b) + ", " + std::to_string(e) + ")";
            expectSameBins(snap, referenceHistograms(block, b, e, seq),
                           where);
            // The selected level's snapshot, count for count.
            EXPECT_TRUE(snap == WordlineSnapshot(*chip_, block, kWl, seq, b, e))
                << where;
        }
    }
}

std::string
levelParamName(const ::testing::TestParamInfo<LevelParam> &info)
{
    const auto [level, type, aged, noise] = info.param;
    std::string name = util::cpuLevelName(level);
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name + "_"
        + kernelParamName(::testing::TestParamInfo<KernelParam>(
            {type, aged, noise}, info.index));
}

INSTANTIATE_TEST_SUITE_P(
    Levels, SenseLevelTest,
    ::testing::Combine(::testing::ValuesIn(util::compiledCpuLevels()),
                       ::testing::Values(CellType::TLC, CellType::QLC),
                       ::testing::Bool(), ::testing::Bool()),
    levelParamName);

/**
 * The snapshot before compaction: one full-range histogram per state
 * over [vthMin, vthMax], queried as the old WordlineSnapshot did.
 */
struct FullRangeOracle
{
    const GrayCode *code;
    std::vector<DacCounts> hist;

    const DacCounts &
    at(int s) const
    {
        return hist[static_cast<std::size_t>(s)];
    }

    std::uint64_t up(int k, int v) const { return at(k - 1).countAbove(v); }

    std::uint64_t down(int k, int v) const
    {
        return at(k).countAtOrBelow(v);
    }

    std::uint64_t
    stateInRange(int s, int lo, int hi) const
    {
        if (hi < lo)
            std::swap(lo, hi);
        return at(s).countAtOrBelow(hi) - at(s).countAtOrBelow(lo);
    }

    std::uint64_t
    inVthRange(int lo, int hi) const
    {
        std::uint64_t n = 0;
        for (int s = 0; s < static_cast<int>(hist.size()); ++s)
            n += stateInRange(s, lo, hi);
        return n;
    }

    std::uint64_t
    pageErrors(int page, const std::vector<int> &voltages) const
    {
        const auto &ks = code->boundariesOfPage(page);
        const int bit0 = code->bit(0, page);
        std::uint64_t errors = 0;
        for (int s = 0; s < static_cast<int>(hist.size()); ++s) {
            const auto &h = at(s);
            if (h.total() == 0)
                continue;
            const int want = code->bit(s, page);
            int region_lo = h.lo() - 1;
            for (std::size_t r = 0; r <= ks.size(); ++r) {
                const int region_hi = r < ks.size()
                    ? voltages[static_cast<std::size_t>(ks[r])]
                    : h.hi();
                if ((bit0 ^ (static_cast<int>(r) & 1)) != want) {
                    errors += h.countAtOrBelow(region_hi)
                        - h.countAtOrBelow(region_lo);
                }
                region_lo = region_hi;
            }
        }
        return errors;
    }
};

TEST_P(SenseKernelTest, CompactSnapshotAnswersLikeAFullRangeHistogram)
{
    // The paper-scale sentinel overlay (298 cells at ratio 0.002) at
    // the end of a third block: only two states have cells there.
    const CellType type = std::get<0>(GetParam());
    const SentinelOverlay paper = core::makeOverlay(
        type == CellType::TLC ? paperTlcGeometry() : paperQlcGeometry(),
        core::SentinelConfig{});
    ASSERT_EQ(paper.count, 298);
    constexpr int kSentinelBlock = 2;
    SentinelOverlay sent = paper;
    sent.start = chip_->geometry().bitlines() - sent.count;
    chip_->programBlock(kSentinelBlock, 123, sent);
    if (std::get<1>(GetParam())) {
        chip_->setPeCycles(kSentinelBlock, 5000);
        chip_->age(kSentinelBlock, 8760.0, 25.0);
    }

    const int vmin = chip_->model().vthMin();
    const int vmax = chip_->model().vthMax();
    const int states = chip_->geometry().states();
    struct Case
    {
        int block, b, e;
        const char *what;
    };
    const Case cases[] = {
        {kProcBlock, 0, chip_->geometry().dataBitlines, "data region"},
        {kExplicitBlock, 0, chip_->geometry().bitlines(), "full wordline"},
        {kProcBlock, 100, 100, "0 cells"},
        {kProcBlock, 7, 8, "1 cell"},
        {kSentinelBlock, sent.start, sent.start + sent.count,
         "298-cell sentinel range"},
    };
    bool saw_empty_state = false;
    for (const Case &c : cases) {
        const std::uint64_t seq = 77 + static_cast<std::uint64_t>(c.b);
        const WordlineSnapshot snap(*chip_, c.block, kWl, seq, c.b, c.e);
        const FullRangeOracle oracle{
            &chip_->grayCode(), referenceHistograms(c.block, c.b, c.e, seq)};
        SCOPED_TRACE(c.what);
        ASSERT_EQ(snap.cells(), static_cast<std::uint64_t>(c.e - c.b));

        // Query values: the clamp range's edges and beyond, int
        // extremes, and every state's observed window edges +- 1.
        std::set<int> edges = {INT_MIN, INT_MIN + 1, vmin - 1000, vmin - 1,
                               vmin, vmin + 1, 0, vmax - 1, vmax, vmax + 1,
                               vmax + 1000, INT_MAX - 1, INT_MAX};
        for (int s = 0; s < states; ++s) {
            const auto &h = oracle.at(s);
            ASSERT_EQ(snap.cellsInState(s), h.total()) << "state " << s;
            if (h.total() == 0) {
                saw_empty_state = true;
                continue;
            }
            int first = vmin, last = vmax;
            while (h.binCount(first) == 0)
                ++first;
            while (h.binCount(last) == 0)
                --last;
            for (const int v : {first, last}) {
                edges.insert(v - 1);
                edges.insert(v);
                edges.insert(v + 1);
            }
        }

        // Every DAC value across the clamp range and a step beyond.
        for (int v = vmin - 2; v <= vmax + 2; ++v) {
            for (int s = 0; s < states; ++s) {
                ASSERT_EQ(snap.stateCellsInRange(s, v - 1, v),
                          oracle.stateInRange(s, v - 1, v))
                    << "state " << s << " v " << v;
            }
            for (int k = 1; k < states; ++k) {
                ASSERT_EQ(snap.upErrors(k, v), oracle.up(k, v))
                    << "k " << k << " v " << v;
                ASSERT_EQ(snap.downErrors(k, v), oracle.down(k, v))
                    << "k " << k << " v " << v;
            }
        }
        for (const int lo : edges) {
            for (int k = 1; k < states; ++k) {
                ASSERT_EQ(snap.upErrors(k, lo), oracle.up(k, lo));
                ASSERT_EQ(snap.downErrors(k, lo), oracle.down(k, lo));
            }
            for (const int hi : edges) {
                ASSERT_EQ(snap.cellsInVthRange(lo, hi),
                          oracle.inVthRange(lo, hi))
                    << "(" << lo << ", " << hi << "]";
                for (int s = 0; s < states; ++s) {
                    ASSERT_EQ(snap.stateCellsInRange(s, lo, hi),
                              oracle.stateInRange(s, lo, hi))
                        << "state " << s << " (" << lo << ", " << hi << "]";
                }
            }
        }

        // Page error counts: defaults, shifted defaults, every
        // threshold at one edge value, and random (unsorted) sets.
        std::vector<std::vector<int>> sets;
        const std::vector<int> defaults = chip_->model().defaultVoltages();
        for (int shift = -400; shift <= 400; shift += 50) {
            std::vector<int> v = defaults;
            for (std::size_t k = 1; k < v.size(); ++k)
                v[k] += shift;
            sets.push_back(v);
        }
        for (const int edge : edges)
            sets.emplace_back(static_cast<std::size_t>(states), edge);
        util::Rng rng(0x5eed + static_cast<std::uint64_t>(c.b));
        for (int i = 0; i < 32; ++i) {
            std::vector<int> v(static_cast<std::size_t>(states));
            for (auto &x : v) {
                x = vmin - 50
                    + static_cast<int>(rng.uniformInt(
                        static_cast<std::uint64_t>(vmax - vmin + 101)));
            }
            sets.push_back(v);
        }
        for (int page = 0; page < chip_->geometry().pagesPerWordline();
             ++page) {
            for (const auto &v : sets) {
                ASSERT_EQ(snap.pageErrors(page, v), oracle.pageErrors(page, v))
                    << "page " << page;
            }
        }
    }
    EXPECT_TRUE(saw_empty_state);
}

TEST(SnapshotScratch, ReusedScratchGivesTheSameSnapshot)
{
    // A wide QLC sense, a narrow TLC one and the QLC one again: the
    // scratch each leaves behind must not leak into the next.
    const Chip qlc = test::agedQlcChip();
    const Chip tlc = test::agedTlcChip();
    const auto q1 = WordlineSnapshot::fullWordline(qlc, 0, 3, 11);
    const auto t1 = WordlineSnapshot(tlc, 1, 4, 12, 500, 900);
    const auto q2 = WordlineSnapshot::fullWordline(qlc, 0, 3, 11);
    const auto t2 = WordlineSnapshot(tlc, 1, 4, 12, 500, 900);
    EXPECT_TRUE(q1 == q2);
    EXPECT_TRUE(t1 == t2);
    // Equality compares counts: another noise draw differs.
    EXPECT_FALSE(q1 == WordlineSnapshot::fullWordline(qlc, 0, 3, 12));
}

TEST(SnapshotScratch, PoolThreadsMatchTheCallingThread)
{
    // Each parallelFor thread bins into its own scratch; alternating
    // QLC and TLC senses make every thread grow and reuse it across
    // its chunk's items.
    const Chip qlc = test::agedQlcChip();
    const Chip tlc = test::agedTlcChip();
    constexpr int kItems = 24;
    const auto sense = [&](int i) {
        const Chip &chip = (i % 2) ? qlc : tlc;
        const int wl = i % chip.geometry().wordlinesPerBlock();
        return (i % 3) ? WordlineSnapshot::dataRegion(chip, i % 3, wl, 5 + i)
                       : WordlineSnapshot(chip, 2, wl, 9 + i, 30000, 30298);
    };
    std::vector<WordlineSnapshot> want;
    for (int i = 0; i < kItems; ++i)
        want.push_back(sense(i));
    for (int pass = 0; pass < 2; ++pass) {
        std::vector<std::optional<WordlineSnapshot>> got(kItems);
        util::parallelFor(4, kItems, [&](int i) {
            got[static_cast<std::size_t>(i)].emplace(sense(i));
        });
        for (int i = 0; i < kItems; ++i) {
            EXPECT_TRUE(*got[static_cast<std::size_t>(i)]
                        == want[static_cast<std::size_t>(i)])
                << "pass " << pass << " item " << i;
        }
    }
}

// Multi-age sweep vs one snapshot per age. Param: level, cell type.
using SweepParam = std::tuple<util::CpuLevel, CellType>;

class SenseAgesTest : public ::testing::TestWithParam<SweepParam>
{
  protected:
    static constexpr int kBlock = 1;
    static constexpr int kWl = 6;

    void
    SetUp() override
    {
        const auto [lvl, type] = GetParam();
        if (!util::cpuLevelSupported(lvl)) {
            GTEST_SKIP() << "this CPU cannot run "
                         << util::cpuLevelName(lvl);
        }
        const bool tlc = type == CellType::TLC;
        chip_ = std::make_unique<Chip>(
            tlc ? tinyTlcGeometry() : tinyQlcGeometry(),
            tlc ? tlcVoltageParams() : qlcVoltageParams(), 2026);
        overlay_ = core::makeOverlay(chip_->geometry(),
                                     core::SentinelConfig{.ratio = 0.02});
        chip_->programBlock(kBlock, 5150, overlay_);

        // The factory grid at two band temperatures, set through the
        // chip's mutators, then ages no condition reaches: read
        // disturb and an age with a hot retention history.
        const core::FactoryCharacterizer grid{core::CharOptions{}};
        for (const double band : {25.0, 70.0}) {
            for (const core::CharCondition &c : grid.options().conditions) {
                ages_.push_back(
                    core::applyCondition(*chip_, kBlock, c, band));
            }
        }
        chip_->refresh(kBlock);
        chip_->recordReads(kBlock, 400000);
        ages_.push_back(chip_->blockAge(kBlock));
        chip_->age(kBlock, 900.0, 85.0);
        chip_->setPeCycles(kBlock, 7000);
        ages_.push_back(chip_->blockAge(kBlock));
        saved_ = chip_->blockAge(kBlock);
    }

    util::CpuLevel level() const { return std::get<0>(GetParam()); }

    /** The first @p k ages, each with its own read seq. */
    std::vector<WordlineSnapshot::AgedRead>
    reads(std::size_t k) const
    {
        std::vector<WordlineSnapshot::AgedRead> out;
        for (std::size_t i = 0; i < k; ++i)
            out.push_back({ages_[i], 0x5eed00 + 7 * i});
        return out;
    }

    /**
     * One snapshot per read, each sensed on its own after
     * setBlockAge() to the read's age; the block's age is restored.
     */
    std::vector<WordlineSnapshot>
    oneByOne(const std::vector<WordlineSnapshot::AgedRead> &rs, int b,
             int e)
    {
        std::vector<WordlineSnapshot> out;
        for (const auto &r : rs) {
            chip_->setBlockAge(kBlock, r.age);
            const SenseKernel kernel(*chip_, kBlock, kWl, level());
            out.emplace_back(kernel, r.readSeq, b, e);
        }
        chip_->setBlockAge(kBlock, saved_);
        return out;
    }

    std::unique_ptr<Chip> chip_;
    SentinelOverlay overlay_;
    std::vector<BlockAge> ages_;
    BlockAge saved_;
};

TEST_P(SenseAgesTest, SweepEqualsOneSnapshotPerAge)
{
    const int data = chip_->geometry().dataBitlines;
    const int all = chip_->geometry().bitlines();
    const std::pair<int, int> ranges[] = {
        {0, 0},                  // empty
        {17, 17},                // empty, mid-wordline
        {0, 1},
        {3, 3 + 2 * SenseKernel::kChunk + 45}, // ends mid-chunk
        {0, data},
        {overlay_.start, overlay_.start + overlay_.count},
        {data - 100, all},
        {0, all},
    };
    // K = 16 is one scratch group of TLC bin sets and two of QLC ones
    // (8, 8); all 34 ages are three TLC groups (12, 11, 11) and four
    // QLC ones (9, 9, 8, 8).
    for (const std::size_t k : {std::size_t{1}, std::size_t{16},
                                ages_.size()}) {
        const auto rs = reads(k);
        for (const auto &[b, e] : ranges) {
            const std::string where = std::string(util::cpuLevelName(level()))
                + " K " + std::to_string(k) + " [" + std::to_string(b) + ", "
                + std::to_string(e) + ")";
            const SenseKernel kernel(*chip_, kBlock, kWl, level());
            const auto swept = WordlineSnapshot::senseAges(kernel, rs, b, e);
            const auto want = oneByOne(rs, b, e);
            ASSERT_EQ(swept.size(), k) << where;
            for (std::size_t i = 0; i < k; ++i) {
                EXPECT_EQ(swept[i].cells(), static_cast<std::uint64_t>(e - b));
                EXPECT_TRUE(swept[i] == want[i]) << where << " age " << i;
            }
        }
    }
    // No reads: no snapshots, and the chip is untouched.
    const SenseKernel kernel(*chip_, kBlock, kWl, level());
    EXPECT_TRUE(WordlineSnapshot::senseAges(kernel, {}, 0, all).empty());
    const BlockAge now = chip_->blockAge(kBlock);
    EXPECT_EQ(now.peCycles, saved_.peCycles);
    EXPECT_EQ(now.effRetentionHours, saved_.effRetentionHours);
}

TEST_P(SenseAgesTest, AgesReallyDiffer)
{
    // The sweep is not vacuous: distinct ages give distinct snapshots
    // at one read seq, and the one-entry sweep is sense() at the
    // block's own age.
    const int data = chip_->geometry().dataBitlines;
    const SenseKernel kernel(*chip_, kBlock, kWl, level());
    const auto swept = WordlineSnapshot::senseAges(
        kernel,
        std::vector<WordlineSnapshot::AgedRead>{{ages_[0], 9},
                                                {ages_[15], 9},
                                                {saved_, 9}},
        0, data);
    EXPECT_FALSE(swept[0] == swept[1]);
    EXPECT_TRUE(swept[2] == WordlineSnapshot(kernel, 9, 0, data));
}

TEST_P(SenseAgesTest, RejectsAContextOfAnotherWordline)
{
    const SenseKernel kernel(*chip_, kBlock, kWl, level());
    const WordlineContext other = chip_->wordlineContext(kBlock, kWl + 1);
    ASSERT_NE(other.gradient, kernel.context().gradient);
    std::vector<std::uint32_t> counts(
        static_cast<std::size_t>(chip_->geometry().states())
        * static_cast<std::size_t>(chip_->model().vthMax()
                                   - chip_->model().vthMin() + 1));
    AgedSense bad{&other, 1,
                  DacBins{counts.data(), chip_->model().vthMin(),
                          chip_->model().vthMax(), 1, 0}};
    EXPECT_THROW(kernel.senseAges(0, 10, std::span(&bad, 1)),
                 util::PanicError);
}

std::string
sweepParamName(const ::testing::TestParamInfo<SweepParam> &info)
{
    const auto [level, type] = info.param;
    std::string name = util::cpuLevelName(level);
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name + (type == CellType::TLC ? "_TLC" : "_QLC");
}

INSTANTIATE_TEST_SUITE_P(
    Levels, SenseAgesTest,
    ::testing::Combine(::testing::ValuesIn(util::compiledCpuLevels()),
                       ::testing::Values(CellType::TLC, CellType::QLC)),
    sweepParamName);

} // namespace
} // namespace flash::nand
