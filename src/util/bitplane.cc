#include "util/bitplane.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace flash::util
{

namespace
{

inline void
checkSizes(const Bitplane &a, const Bitplane &b)
{
    fatalIf(a.size() != b.size(), "bitplane: size mismatch");
}

} // namespace

void
Bitplane::maskTail()
{
    if (words_.empty())
        return;
    const std::size_t used = bits_ & 63;
    if (used)
        words_.back() &= (1ULL << used) - 1;
}

void
Bitplane::flip()
{
    for (auto &w : words_)
        w = ~w;
    maskTail();
}

std::uint64_t
Bitplane::popcount() const
{
    std::uint64_t n = 0;
    for (std::uint64_t w : words_)
        n += static_cast<std::uint64_t>(std::popcount(w));
    return n;
}

Bitplane &
Bitplane::operator^=(const Bitplane &other)
{
    checkSizes(*this, other);
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] ^= other.words_[i];
    return *this;
}

Bitplane &
Bitplane::operator|=(const Bitplane &other)
{
    checkSizes(*this, other);
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] |= other.words_[i];
    return *this;
}

Bitplane &
Bitplane::operator&=(const Bitplane &other)
{
    checkSizes(*this, other);
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] &= other.words_[i];
    return *this;
}

std::uint64_t
diffCount(const Bitplane &a, const Bitplane &b)
{
    checkSizes(a, b);
    std::uint64_t n = 0;
    const std::uint64_t *wa = a.words();
    const std::uint64_t *wb = b.words();
    for (std::size_t i = 0; i < a.wordCount(); ++i)
        n += static_cast<std::uint64_t>(std::popcount(wa[i] ^ wb[i]));
    return n;
}

std::uint64_t
maskedDiffCount(const Bitplane &mask, const Bitplane &a, const Bitplane &b)
{
    checkSizes(mask, a);
    checkSizes(a, b);
    std::uint64_t n = 0;
    const std::uint64_t *wm = mask.words();
    const std::uint64_t *wa = a.words();
    const std::uint64_t *wb = b.words();
    for (std::size_t i = 0; i < a.wordCount(); ++i) {
        n += static_cast<std::uint64_t>(
            std::popcount(wm[i] & (wa[i] ^ wb[i])));
    }
    return n;
}

void
Bitplane::expand(std::uint8_t *out) const
{
    const std::uint64_t *w = words_.data();
    for (std::size_t i = 0; i < bits_; i += 64) {
        const std::uint64_t word = w[i >> 6];
        const std::size_t m = std::min<std::size_t>(64, bits_ - i);
        for (std::size_t j = 0; j < m; ++j)
            out[i + j] = (word >> j) & 1;
    }
}

void
SlicedCounter3::add(const Bitplane &plane)
{
    checkSizes(s0_, plane);
    std::uint64_t *w0 = s0_.words();
    std::uint64_t *w1 = s1_.words();
    std::uint64_t *w2 = s2_.words();
    const std::uint64_t *wp = plane.words();
    for (std::size_t i = 0; i < s0_.wordCount(); ++i) {
        // Ripple-carry add of one bit into the 3-bit sliced counter;
        // a carry out of the top slice saturates the count at 7.
        const std::uint64_t c0 = w0[i] & wp[i];
        w0[i] ^= wp[i];
        const std::uint64_t c1 = w1[i] & c0;
        w1[i] ^= c0;
        const std::uint64_t c2 = w2[i] & c1;
        w2[i] ^= c1;
        w0[i] |= c2; // saturate: 8 would wrap to 0, pin to 7 instead
        w1[i] |= c2;
        w2[i] |= c2;
    }
}

void
SlicedCounter3::expand(std::uint8_t *out) const
{
    const std::uint64_t *w0 = s0_.words();
    const std::uint64_t *w1 = s1_.words();
    const std::uint64_t *w2 = s2_.words();
    const std::size_t bits = s0_.size();
    for (std::size_t i = 0; i < bits; i += 64) {
        const std::uint64_t b0 = w0[i >> 6];
        const std::uint64_t b1 = w1[i >> 6];
        const std::uint64_t b2 = w2[i >> 6];
        const std::size_t m = std::min<std::size_t>(64, bits - i);
        for (std::size_t j = 0; j < m; ++j) {
            out[i + j] = static_cast<std::uint8_t>(
                ((b0 >> j) & 1) | (((b1 >> j) & 1) << 1)
                | (((b2 >> j) & 1) << 2));
        }
    }
}

} // namespace flash::util
