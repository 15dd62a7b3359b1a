/**
 * @file
 * The per-page-op fast paths against the references they replaced:
 * LatencyHistogram::binOf and ExactSum::add read the IEEE-754 bits
 * where they once called frexp/ldexp, util::FastDiv multiplies where
 * the FTL addressing divided, and PageLayout::unpack is built on it.
 * Each must agree with its reference on every edge of its domain and
 * on a seeded sweep of random inputs.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ssd/config.hh"
#include "ssd/ftl/block_table.hh"
#include "util/exact_sum.hh"
#include "util/fast_div.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/rng.hh"

namespace flash::util
{
namespace
{

/** ExactSum::add as it was: the frexp/ldexp decomposition. */
struct ReferenceSum
{
    std::array<std::uint64_t, ExactSum::kLimbs> limbs{};

    void
    addAt(int limb, std::uint64_t v)
    {
        for (; v != 0 && limb < ExactSum::kLimbs; ++limb) {
            std::uint64_t &slot = limbs[static_cast<std::size_t>(limb)];
            slot += v;
            v = slot < v ? 1 : 0;
        }
    }

    void
    add(double v)
    {
        if (!(v > 0.0) || !std::isfinite(v))
            return;
        int e = 0;
        const double frac = std::frexp(v, &e); // v = frac * 2^e
        const auto m = static_cast<std::uint64_t>(std::ldexp(frac, 53));
        const int pos = e - 53 + ExactSum::kBiasBits;
        const unsigned __int128 wide = static_cast<unsigned __int128>(m)
            << (pos & 63);
        addAt(pos >> 6, static_cast<std::uint64_t>(wide));
        addAt((pos >> 6) + 1, static_cast<std::uint64_t>(wide >> 64));
    }
};

/** binOf as it was, through frexp; finite inputs only. */
int
referenceBinOf(double v)
{
    if (!(v > 0.0))
        return 0;
    if (v < 1.0)
        return 0;
    int e = 0;
    const double frac = std::frexp(v, &e);
    const int sub = std::min(
        LatencyHistogram::kSubBins - 1,
        static_cast<int>((frac - 0.5) * 2.0 * LatencyHistogram::kSubBins));
    const int range = std::min(e - 1, 63);
    return 1 + range * LatencyHistogram::kSubBins + sub;
}

/**
 * Every edge of the double line the bit paths decode differently:
 * zeros and negatives, each power of two and its neighbours
 * (subnormals included), every sub-bin edge of several histogram
 * ranges and its neighbours, the range cap at 2^64 and DBL_MAX.
 */
std::vector<double>
edgeValues()
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> v = {0.0,     -0.0,    -1.0,    0.5,
                             1.0,     std::nextafter(1.0, 0.0),
                             DBL_MIN, std::nextafter(DBL_MIN, 0.0),
                             DBL_MAX, std::nextafter(DBL_MAX, 0.0),
                             5e-324,  2 * 5e-324,
                             1e20,    1e300,   -DBL_MAX};
    for (int k = -1074; k <= 1023; ++k) {
        const double p = std::ldexp(1.0, k);
        v.push_back(p);
        v.push_back(std::nextafter(p, 0.0));
        v.push_back(std::nextafter(p, inf));
    }
    for (int range : {0, 1, 5, 13, 30, 52, 53, 62, 63, 64, 65, 100, 1023}) {
        for (int s = 0; s < LatencyHistogram::kSubBins; ++s) {
            const double edge = std::ldexp(
                1.0 + static_cast<double>(s) / LatencyHistogram::kSubBins,
                range);
            v.push_back(edge);
            v.push_back(std::nextafter(edge, 0.0));
            v.push_back(std::nextafter(edge, inf));
        }
    }
    return v;
}

/** Seeded random bit patterns: every exponent, sign and NaN payload. */
std::vector<double>
randomBitPatterns(std::size_t n)
{
    Rng rng(0xb175);
    std::vector<double> v(n);
    for (double &x : v)
        x = std::bit_cast<double>(rng.next());
    return v;
}

TEST(HistogramBits, BinOfMatchesTheFrexpReferenceOnEveryEdge)
{
    for (double v : edgeValues())
        ASSERT_EQ(LatencyHistogram::binOf(v), referenceBinOf(v)) << v;
}

TEST(HistogramBits, BinOfMatchesTheFrexpReferenceOnRandomBits)
{
    for (double v : randomBitPatterns(1000000)) {
        if (std::isinf(v))
            continue; // the reference casts inf to int
        ASSERT_EQ(LatencyHistogram::binOf(v), referenceBinOf(v))
            << std::bit_cast<std::uint64_t>(v);
    }
}

TEST(HistogramBits, NonFiniteValuesKeepTheirClamps)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(LatencyHistogram::binOf(nan), 0);
    EXPECT_EQ(LatencyHistogram::binOf(-inf), 0);
    // +inf reads as the first bin of the capped top range.
    EXPECT_EQ(LatencyHistogram::binOf(inf),
              1 + 63 * LatencyHistogram::kSubBins);

    // add() records a non-finite or negative value as 0.
    LatencyHistogram h;
    for (double v : {nan, inf, -inf, -3.0})
        h.add(v);
    ASSERT_EQ(h.bins().size(), 1u);
    EXPECT_EQ(h.bins()[0], 4u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
}

TEST(ExactSumBits, EachValueLandsWhereFrexpPutIt)
{
    ExactSum all;
    ReferenceSum all_ref;
    for (double v : edgeValues()) {
        ExactSum one;
        ReferenceSum one_ref;
        one.add(v);
        one_ref.add(v);
        ASSERT_EQ(one.limbs(), one_ref.limbs) << v;
        all.add(v);
        all_ref.add(v);
    }
    EXPECT_EQ(all.limbs(), all_ref.limbs);
}

TEST(ExactSumBits, RandomBitPatternsAccumulateLikeFrexp)
{
    ExactSum fast;
    ReferenceSum ref;
    std::size_t i = 0;
    for (double v : randomBitPatterns(1000000)) {
        fast.add(v);
        ref.add(v);
        if (++i % 4096 == 0)
            ASSERT_EQ(fast.limbs(), ref.limbs) << "at " << i;
    }
    EXPECT_EQ(fast.limbs(), ref.limbs);
}

TEST(ExactSumBits, NonFiniteAndNonPositiveAddNothing)
{
    ExactSum s;
    for (double v : {0.0, -0.0, -1.0, -DBL_MAX,
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()})
        s.add(v);
    EXPECT_TRUE(s.zero());
}

TEST(FastDiv, MatchesHardwareDivision)
{
    constexpr std::uint32_t kTop = INT32_MAX;
    for (std::uint32_t d = 1; d <= 4096; ++d) {
        const FastDiv f(d);
        for (std::uint32_t n : {0u, d - 1, d, kTop, UINT32_MAX}) {
            ASSERT_EQ(f.div(n), n / d) << n << " / " << d;
            ASSERT_EQ(f.mod(n), n % d) << n << " % " << d;
        }
    }
    // Wide divisors, powers of two and their neighbours among them.
    Rng rng(0xd1f);
    for (int k = 12; k < 32; ++k) {
        for (std::uint32_t d : {(1u << k) - 1, 1u << k, (1u << k) + 1,
                                static_cast<std::uint32_t>(
                                    rng.next() >> 33 | 1)}) {
            const FastDiv f(d);
            for (std::uint32_t n :
                 {0u, d - 1, d, d + 1, kTop, UINT32_MAX,
                  static_cast<std::uint32_t>(rng.next())}) {
                ASSERT_EQ(f.div(n), n / d) << n << " / " << d;
                ASSERT_EQ(f.mod(n), n % d) << n << " % " << d;
            }
        }
    }
}

TEST(FastDiv, ZeroDivisorIsFatal)
{
    EXPECT_THROW(FastDiv(0), FatalError);
}

/** unpack(pack(a)) == a, and pack(a) is the plane-major page number. */
void
expectRoundTrip(const ssd::PageLayout &layout, const ssd::PhysAddr &a)
{
    const std::int64_t n = (static_cast<std::int64_t>(a.plane)
                                * layout.blocksPerPlane()
                            + a.block)
            * layout.pagesPerBlock()
        + a.page;
    const ssd::PhysAddr u = layout.unpack(n);
    if (layout.pack(a) != n || u.plane != a.plane || u.block != a.block
        || u.page != a.page) {
        FAIL() << "page " << n << " unpacks to (" << u.plane << ", "
               << u.block << ", " << u.page << "), expected (" << a.plane
               << ", " << a.block << ", " << a.page << ")";
    }
}

TEST(PageLayoutBits, SinglePlaneRoundTripsEveryPage)
{
    const ssd::PageLayout layout(1, 128, 384);
    for (int b = 0; b < layout.blocksPerPlane(); ++b) {
        for (int p = 0; p < layout.pagesPerBlock(); ++p)
            expectRoundTrip(layout, {0, b, p});
    }
}

TEST(PageLayoutBits, RoundTripsEveryPageAtThe32BitBound)
{
    // The default drive's 128 planes and 128 blocks per plane with the
    // most pages per block validate() accepts: one more and the packed
    // page no longer fits an int32.
    ssd::SsdConfig c;
    c.pagesPerBlock = INT32_MAX / (c.totalPlanes() * c.blocksPerPlane);
    EXPECT_NO_THROW(c.validate());
    ++c.pagesPerBlock;
    EXPECT_THROW(c.validate(), FatalError);
    --c.pagesPerBlock;
    const ssd::PageLayout layout(c.totalPlanes(), c.blocksPerPlane,
                                 c.pagesPerBlock);

    // The 2^31 pages themselves would take seconds. FastDiv's quotient
    // floor(M * n / 2^64) is monotone in n, so when the first and last
    // page of a block both divide to that block's index, every page
    // between them does too (and its remainder n - q * ppb is exact).
    // Every block index goes through the second division.
    const int last = c.pagesPerBlock - 1;
    for (int plane = 0; plane < c.totalPlanes(); ++plane) {
        for (int b = 0; b < c.blocksPerPlane; ++b) {
            for (int p : {0, 1, last - 1, last})
                expectRoundTrip(layout, {plane, b, p});
        }
    }
    Rng rng(0x9a6e);
    for (int i = 0; i < 100000; ++i) {
        expectRoundTrip(
            layout,
            {static_cast<int>(rng.uniformInt(
                 static_cast<std::uint64_t>(c.totalPlanes()))),
             static_cast<int>(rng.uniformInt(
                 static_cast<std::uint64_t>(c.blocksPerPlane))),
             static_cast<int>(rng.uniformInt(
                 static_cast<std::uint64_t>(c.pagesPerBlock)))});
    }
}

} // namespace
} // namespace flash::util
