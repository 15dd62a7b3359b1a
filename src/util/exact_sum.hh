/**
 * @file
 * Order-invariant exact accumulation of non-negative doubles.
 *
 * An ExactSum is a fixed-point superaccumulator: the running total is
 * held as an array of 64-bit limbs covering the full finite double
 * range, and add() deposits each value's integer mantissa into the
 * limbs its exponent selects, propagating carries. Integer addition
 * is associative and commutative, so the accumulated state — and
 * therefore value(), the total rounded once back to double — is a
 * pure function of the *multiset* of added values: any insertion
 * order, any shard split, any merge() permutation produces identical
 * bits. This is what lets per-device metrics registries merge into
 * fleet rollups byte-identically regardless of evaluation order
 * (plain `double` += accumulation rounds at every step, so it is
 * order-sensitive).
 *
 * Only non-negative finite values are accepted (the latency metrics
 * clamp negatives to zero before accumulating); the limb array has
 * headroom for more than 2^63 max-double additions, so carries cannot
 * overflow the top in any realistic run.
 */

#ifndef SENTINELFLASH_UTIL_EXACT_SUM_HH
#define SENTINELFLASH_UTIL_EXACT_SUM_HH

#include <array>
#include <bit>
#include <cstdint>

namespace flash::util
{

/** Exact, order-invariant sum of non-negative doubles. */
class ExactSum
{
  public:
    /** Limb k carries weight 2^(64k - kBiasBits). */
    static constexpr int kBiasBits = 1152;

    /**
     * Bit positions span [-1152, 64*kLimbs - 1152). The smallest
     * mantissa bit of any finite double sits at 2^-1074 >= 2^-1152;
     * the largest double is < 2^1024, so sums stay below 2^1088 until
     * ~2^64 additions of the maximum double — limb 36 tops out at
     * 2^1152, leaving > 2^63 of headroom.
     */
    static constexpr int kLimbs = 36;

    /**
     * Add one value. Negative, NaN and infinite inputs contribute
     * nothing (callers clamp before recording; see
     * LatencyHistogram::add).
     */
    void
    add(double v)
    {
        // v = m * 2^(e - 1075) with the implicit bit in m for a normal
        // (biased exponent e >= 1), m * 2^-1074 for a subnormal; m's
        // lowest bit lands at bit e - 1075 + kBiasBits (-1074 +
        // kBiasBits) of the limb array. e is 2047 for +inf (NaN fails
        // v > 0).
        const auto bits = std::bit_cast<std::uint64_t>(v);
        const int e = static_cast<int>(bits >> 52);
        if (!(v > 0.0) || e == 2047)
            return;
        const std::uint64_t frac = bits & ((std::uint64_t{1} << 52) - 1);
        const std::uint64_t m =
            e == 0 ? frac : frac | (std::uint64_t{1} << 52);
        const int pos = (e == 0 ? -1074 : e - 1075) + kBiasBits;
        const unsigned __int128 wide = static_cast<unsigned __int128>(m)
            << (pos & 63); // <= 116 bits
        // Limbs pos/64 and pos/64 + 1 as one 128-bit word; pos/64 is
        // at most 33, so a carry out of them lands in limb <= 35.
        const auto lo = static_cast<std::size_t>(pos >> 6);
        const unsigned __int128 sum =
            ((static_cast<unsigned __int128>(limbs_[lo + 1]) << 64)
             | limbs_[lo])
            + wide;
        limbs_[lo] = static_cast<std::uint64_t>(sum);
        limbs_[lo + 1] = static_cast<std::uint64_t>(sum >> 64);
        if (sum < wide)
            addAt(static_cast<int>(lo) + 2, 1);
    }

    /** Add another accumulator's exact total (limb-wise, exact). */
    void merge(const ExactSum &other);

    /**
     * The exact total rounded once to double: the top 128 bits of the
     * limb array, with every lower nonzero bit folded into a sticky
     * bit, converted round-to-nearest. Deterministic in the exact
     * total alone. Totals beyond the double range return +inf.
     */
    double value() const;

    /** Whether nothing (or only zeros) has been added. */
    bool zero() const;

    /**
     * The exact total, least significant limb first (exposed for the
     * checks against the frexp reference).
     */
    const std::array<std::uint64_t, kLimbs> &limbs() const { return limbs_; }

  private:
    /** Adds @p v at limb @p limb and carries upward. */
    void
    addAt(int limb, std::uint64_t v)
    {
        while (v != 0 && limb < kLimbs) {
            std::uint64_t &slot = limbs_[static_cast<std::size_t>(limb)];
            const std::uint64_t old = slot;
            slot = old + v;
            v = slot < old ? 1 : 0;
            ++limb;
        }
    }

    std::array<std::uint64_t, kLimbs> limbs_{};
};

/**
 * Exact, order-invariant sum of doubles of either sign: a pair of
 * ExactSum accumulators (positive and negative magnitudes). The pair
 * state is a pure function of the multiset of added values, so any
 * insertion order or merge() permutation produces identical state.
 * value() rounds each side once and subtracts — one more rounding
 * than a single-sided ExactSum, but still deterministic in the
 * multiset alone, which is the property the online least-squares
 * moments need (features and offsets can be negative).
 */
class SignedExactSum
{
  public:
    /** Add one value (NaN and infinite inputs contribute nothing). */
    void add(double v);

    /** Add another accumulator's exact totals (limb-wise, exact). */
    void merge(const SignedExactSum &other);

    /** Positive total minus negative total, each exactly rounded. */
    double value() const;

    /** Whether nothing (or only zeros) has been added. */
    bool zero() const;

  private:
    ExactSum pos_;
    ExactSum neg_;
};

} // namespace flash::util

#endif // SENTINELFLASH_UTIL_EXACT_SUM_HH
