/**
 * @file
 * Exact division of 32-bit unsigned integers by a divisor fixed at
 * run time, by one multiply instead of a hardware divide.
 *
 * Lemire, Kaser and Kurz's direct computation ("Faster remainder by
 * direct computation", 2019): with M = ceil(2^64 / d), the quotient
 * of any n < 2^32 is the high word of M * n. The FTL tables' packed
 * page numbers, LPNs and plane indices are all below 2^31
 * (SsdConfig::validate), so their addressing divides with it.
 */

#ifndef SENTINELFLASH_UTIL_FAST_DIV_HH
#define SENTINELFLASH_UTIL_FAST_DIV_HH

#include <cstdint>

#include "util/logging.hh"

namespace flash::util
{

/** Division by a run-time constant d >= 1, exact for n < 2^32. */
class FastDiv
{
  public:
    /** Fatal when @p d is 0. */
    explicit FastDiv(std::uint32_t d) : d_(d)
    {
        fatalIf(d == 0, "FastDiv: division by zero");
        // ceil(2^64 / d) for every d >= 2 (a power of two included);
        // for d = 1 it wraps to 0, which div() reads as the identity.
        m_ = ~std::uint64_t{0} / d + 1;
    }

    std::uint32_t divisor() const { return d_; }

    /** n / d. */
    std::uint32_t
    div(std::uint32_t n) const
    {
        if (m_ == 0)
            return n;
        return static_cast<std::uint32_t>(
            (static_cast<unsigned __int128>(m_) * n) >> 64);
    }

    /** n % d. */
    std::uint32_t mod(std::uint32_t n) const { return n - div(n) * d_; }

  private:
    std::uint64_t m_ = 0;
    std::uint32_t d_;
};

} // namespace flash::util

#endif // SENTINELFLASH_UTIL_FAST_DIV_HH
