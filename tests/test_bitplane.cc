/**
 * Property tests for the packed bitplane kernels against naive
 * byte-wise oracles: random widths (including non-multiples of 64),
 * all-zero / all-one masks, and the tail-bits-zero invariant every
 * kernel relies on.
 */

#include <gtest/gtest.h>

#include <vector>

#include "util/bitplane.hh"
#include "util/rng.hh"

namespace flash::util
{
namespace
{

/** Random plane plus its byte-per-bit oracle. */
struct PlanePair
{
    Bitplane plane;
    std::vector<std::uint8_t> bytes;

    PlanePair(std::size_t n, Rng &rng, int one_in = 2) : plane(n), bytes(n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            const bool bit =
                one_in <= 1 || rng.uniformInt(
                                   static_cast<std::uint64_t>(one_in))
                    == 0;
            bytes[i] = bit ? 1 : 0;
            plane.assign(i, bit);
        }
    }
};

/** Tail bits beyond size() must be zero in the last word. */
void
expectTailZero(const Bitplane &p)
{
    if (p.size() % 64 == 0)
        return;
    const std::uint64_t last = p.words()[p.wordCount() - 1];
    const std::uint64_t mask = ~((1ULL << (p.size() % 64)) - 1);
    EXPECT_EQ(last & mask, 0u) << "tail bits leaked (size " << p.size()
                               << ")";
}

// Widths exercising word boundaries: empty tail, 1-bit tail, full
// words, single word, sub-word.
const std::size_t kWidths[] = {1, 7, 63, 64, 65, 127, 128, 129,
                               1000, 4096, 4097};

TEST(Bitplane, SetTestAssignRoundTrip)
{
    Rng rng(11);
    for (const std::size_t n : kWidths) {
        PlanePair p(n, rng);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(p.plane.test(i), p.bytes[i] != 0);
        expectTailZero(p.plane);
    }
}

TEST(Bitplane, PopcountMatchesByteOracle)
{
    Rng rng(22);
    for (const std::size_t n : kWidths) {
        PlanePair p(n, rng, 3);
        std::uint64_t expect = 0;
        for (const auto b : p.bytes)
            expect += b;
        EXPECT_EQ(p.plane.popcount(), expect) << "width " << n;
    }
}

TEST(Bitplane, KernelsMatchByteOracle)
{
    Rng rng(33);
    for (const std::size_t n : kWidths) {
        const PlanePair a(n, rng, 2);
        const PlanePair b(n, rng, 4);
        const PlanePair m(n, rng, 3);

        std::uint64_t diff = 0, mdiff = 0;
        for (std::size_t i = 0; i < n; ++i) {
            diff += a.bytes[i] != b.bytes[i];
            mdiff += m.bytes[i] && a.bytes[i] != b.bytes[i];
        }
        EXPECT_EQ(diffCount(a.plane, b.plane), diff) << "width " << n;
        EXPECT_EQ(maskedDiffCount(m.plane, a.plane, b.plane), mdiff)
            << "width " << n;
    }
}

TEST(Bitplane, AllZeroAndAllOneMasks)
{
    Rng rng(44);
    for (const std::size_t n : kWidths) {
        const PlanePair a(n, rng);
        Bitplane zeros(n);
        Bitplane ones(n);
        ones.flip();
        expectTailZero(ones);

        EXPECT_EQ(ones.popcount(), n);
        EXPECT_EQ(diffCount(a.plane, zeros), a.plane.popcount());
        EXPECT_EQ(diffCount(a.plane, ones), n - a.plane.popcount());
        EXPECT_EQ(maskedDiffCount(ones, a.plane, zeros),
                  a.plane.popcount());
        EXPECT_EQ(maskedDiffCount(zeros, a.plane, ones), 0u);
    }
}

TEST(Bitplane, OperatorsMatchByteOracleAndKeepTailZero)
{
    Rng rng(55);
    for (const std::size_t n : kWidths) {
        const PlanePair a(n, rng);
        const PlanePair b(n, rng, 3);

        Bitplane x = a.plane;
        x ^= b.plane;
        Bitplane o = a.plane;
        o |= b.plane;
        Bitplane d = a.plane;
        d &= b.plane;
        Bitplane f = a.plane;
        f.flip();

        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(x.test(i), (a.bytes[i] ^ b.bytes[i]) != 0);
            EXPECT_EQ(o.test(i), (a.bytes[i] | b.bytes[i]) != 0);
            EXPECT_EQ(d.test(i), (a.bytes[i] & b.bytes[i]) != 0);
            EXPECT_EQ(f.test(i), a.bytes[i] == 0);
        }
        expectTailZero(x);
        expectTailZero(o);
        expectTailZero(d);
        expectTailZero(f);
    }
}

TEST(Bitplane, MaskTailClearsRawWordWrites)
{
    const std::size_t n = 70; // 6-bit tail in the second word
    Bitplane p(n);
    p.words()[0] = ~0ULL;
    p.words()[1] = ~0ULL;
    p.maskTail();
    expectTailZero(p);
    EXPECT_EQ(p.popcount(), n);
}

TEST(Bitplane, ExpandMatchesTest)
{
    Rng rng(88);
    for (const std::size_t n : kWidths) {
        const PlanePair p(n, rng, 3);
        std::vector<std::uint8_t> out(n, 0xff);
        p.plane.expand(out.data());
        EXPECT_EQ(out, p.bytes) << "width " << n;
    }
}

TEST(Bitplane, ClearZeroesEverything)
{
    Rng rng(66);
    PlanePair p(129, rng);
    p.plane.clear();
    EXPECT_EQ(p.plane.popcount(), 0u);
}

TEST(SlicedCounter3, MatchesByteCounters)
{
    Rng rng(77);
    for (const std::size_t n : kWidths) {
        SlicedCounter3 counter(n);
        std::vector<int> oracle(n, 0);
        for (int round = 0; round < 6; ++round) {
            const PlanePair p(n, rng, 2 + round % 3);
            counter.add(p.plane);
            for (std::size_t i = 0; i < n; ++i)
                oracle[i] += p.bytes[i];
        }
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(counter.valueAt(i), oracle[i]) << "bit " << i;
    }
}

TEST(SlicedCounter3, ExpandMatchesValueAt)
{
    Rng rng(99);
    for (const std::size_t n : kWidths) {
        SlicedCounter3 counter(n);
        for (int round = 0; round < 5; ++round)
            counter.add(PlanePair(n, rng, 2).plane);
        std::vector<std::uint8_t> out(n, 0xff);
        counter.expand(out.data());
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(out[i], counter.valueAt(i)) << "bit " << i;
    }
}

TEST(SlicedCounter3, SaturatesAtSeven)
{
    const std::size_t n = 100;
    Bitplane ones(n);
    ones.flip();
    SlicedCounter3 counter(n);
    for (int round = 0; round < 9; ++round)
        counter.add(ones);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(counter.valueAt(i), 7);
}

TEST(SlicedCounter3, PartialPlanesCountIndependently)
{
    const std::size_t n = 130;
    Bitplane evens(n);
    for (std::size_t i = 0; i < n; i += 2)
        evens.set(i);
    SlicedCounter3 counter(n);
    counter.add(evens);
    counter.add(evens);
    counter.add(evens);
    Bitplane ones(n);
    ones.flip();
    counter.add(ones);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(counter.valueAt(i), i % 2 == 0 ? 4 : 1);
}

} // namespace
} // namespace flash::util
