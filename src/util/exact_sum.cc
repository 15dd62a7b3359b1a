#include "util/exact_sum.hh"

#include <cmath>

namespace flash::util
{

void
ExactSum::merge(const ExactSum &other)
{
    for (int k = kLimbs - 1; k >= 0; --k)
        addAt(k, other.limbs_[static_cast<std::size_t>(k)]);
}

bool
ExactSum::zero() const
{
    for (const std::uint64_t limb : limbs_) {
        if (limb != 0)
            return false;
    }
    return true;
}

double
ExactSum::value() const
{
    int top = kLimbs - 1;
    while (top >= 0 && limbs_[static_cast<std::size_t>(top)] == 0)
        --top;
    if (top < 0)
        return 0.0;

    const std::uint64_t hi = limbs_[static_cast<std::size_t>(top)];
    const std::uint64_t lo =
        top > 0 ? limbs_[static_cast<std::size_t>(top - 1)] : 0;
    unsigned __int128 x =
        (static_cast<unsigned __int128>(hi) << 64) | lo;
    for (int k = 0; k < top - 1; ++k) {
        if (limbs_[static_cast<std::size_t>(k)] != 0) {
            x |= 1; // sticky: the tail below the 128-bit window
            break;
        }
    }
    // Round the 128-bit window once (int -> double is round-to-
    // nearest), then scale by an exact power of two.
    return std::ldexp(static_cast<double>(x),
                      64 * (top - 1) - kBiasBits);
}

void
SignedExactSum::add(double v)
{
    if (!std::isfinite(v))
        return;
    if (v > 0.0)
        pos_.add(v);
    else
        neg_.add(-v);
}

void
SignedExactSum::merge(const SignedExactSum &other)
{
    pos_.merge(other.pos_);
    neg_.merge(other.neg_);
}

double
SignedExactSum::value() const
{
    return pos_.value() - neg_.value();
}

bool
SignedExactSum::zero() const
{
    return pos_.zero() && neg_.zero();
}

} // namespace flash::util
