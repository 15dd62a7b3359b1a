/**
 * @file
 * Packed bitplanes: one bit per cell in uint64_t words, with
 * popcount-based counting kernels.
 *
 * The sensing hot loops (page error counting, sentinel up/down
 * errors, state-change comparison, soft-sensing agreement) reduce to
 * boolean algebra over whole wordlines; storing one bit per cell and
 * counting with std::popcount turns byte-per-bit passes into
 * word-at-a-time kernels (64 cells per instruction).
 *
 * Invariant: bits beyond size() in the last word are always zero, so
 * every kernel may popcount whole words without masking.
 */

#ifndef SENTINELFLASH_UTIL_BITPLANE_HH
#define SENTINELFLASH_UTIL_BITPLANE_HH

#include <cstdint>
#include <vector>

namespace flash::util
{

/** Fixed-size packed bit vector (one bit per cell). */
class Bitplane
{
  public:
    Bitplane() = default;

    /** Construct with @p bits bits, all zero. */
    explicit Bitplane(std::size_t bits)
        : bits_(bits), words_((bits + 63) / 64, 0)
    {}

    /** Number of bits. */
    std::size_t size() const { return bits_; }

    /** Number of backing 64-bit words. */
    std::size_t wordCount() const { return words_.size(); }

    /** Backing words (tail bits beyond size() are zero). */
    const std::uint64_t *words() const { return words_.data(); }

    /** Mutable backing words; call maskTail() after raw writes. */
    std::uint64_t *words() { return words_.data(); }

    /** Set bit @p i to one. */
    void set(std::size_t i) { words_[i >> 6] |= 1ULL << (i & 63); }

    /** Set bit @p i to @p v. */
    void
    assign(std::size_t i, bool v)
    {
        const std::uint64_t mask = 1ULL << (i & 63);
        if (v)
            words_[i >> 6] |= mask;
        else
            words_[i >> 6] &= ~mask;
    }

    /** Bit @p i. */
    bool test(std::size_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /** Zero every bit. */
    void clear() { words_.assign(words_.size(), 0); }

    /** Zero the tail bits beyond size() (after raw word writes). */
    void maskTail();

    /** Complement every bit in place. */
    void flip();

    /** Number of one bits. */
    std::uint64_t popcount() const;

    /** In-place XOR with @p other (equal sizes). */
    Bitplane &operator^=(const Bitplane &other);

    /** In-place OR with @p other (equal sizes). */
    Bitplane &operator|=(const Bitplane &other);

    /** In-place AND with @p other (equal sizes). */
    Bitplane &operator&=(const Bitplane &other);

    /**
     * Expand to one byte per bit (0/1) into @p out, which must hold
     * size() bytes. Word-at-a-time readout: the per-cell consumers at
     * the end of a packed pipeline (LLR mapping, result export) cost
     * less through this than through size() test() calls.
     */
    void expand(std::uint8_t *out) const;

  private:
    std::size_t bits_ = 0;
    std::vector<std::uint64_t> words_;
};

/** popcount(a ^ b): number of differing bits (equal sizes). */
std::uint64_t diffCount(const Bitplane &a, const Bitplane &b);

/** popcount(mask & (a ^ b)): differing bits within a mask. */
std::uint64_t maskedDiffCount(const Bitplane &mask, const Bitplane &a,
                              const Bitplane &b);

/**
 * Bit-sliced per-bit counter with 3 bit planes (values 0..7, enough
 * for the 6 extra senses of 3-bit soft sensing). Adding a plane
 * increments the counter of every bit set in it; counters saturate
 * at 7.
 */
class SlicedCounter3
{
  public:
    explicit SlicedCounter3(std::size_t bits)
        : s0_(bits), s1_(bits), s2_(bits)
    {}

    /** Add 1 to the counter of every bit set in @p plane. */
    void add(const Bitplane &plane);

    /** Counter value of bit @p i (0..7). */
    int valueAt(std::size_t i) const
    {
        return (s0_.test(i) ? 1 : 0) + (s1_.test(i) ? 2 : 0)
            + (s2_.test(i) ? 4 : 0);
    }

    /**
     * Expand every counter to one byte (0..7) into @p out, which must
     * hold as many bytes as the planes have bits. Word-at-a-time
     * readout of all three slices; the cheap way to hand the counts
     * to a per-cell consumer.
     */
    void expand(std::uint8_t *out) const;

  private:
    Bitplane s0_, s1_, s2_; // bit 0, 1, 2 of each per-bit counter
};

} // namespace flash::util

#endif // SENTINELFLASH_UTIL_BITPLANE_HH
