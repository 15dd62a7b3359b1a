/**
 * @file
 * The body of util::toGaussianBatch, for hot loops that inline it
 * into their own per-CPU-level wrappers (util/cpu_level.hh).
 *
 * One source for the central rational, so toGaussian(), the
 * dispatched toGaussianBatch() and every inlined copy perform the
 * same IEEE operations in the same order.
 */

#ifndef SENTINELFLASH_UTIL_GAUSSIAN_BATCH_HH
#define SENTINELFLASH_UTIL_GAUSSIAN_BATCH_HH

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/cpu_level.hh"
#include "util/rng.hh"

namespace flash::util::gaussian
{

// Acklam's rational approximation to the inverse normal CDF, central
// region (the tail coefficients live with toGaussian() in rng.cc).
inline constexpr double kA[] = {
    -3.969683028665376e+01, 2.209460984245205e+02,
    -2.759285104469687e+02, 1.383577518672690e+02,
    -3.066479806614716e+01, 2.506628277459239e+00};
inline constexpr double kB[] = {
    -5.447609879822406e+01, 1.615858368580409e+02,
    -1.556989798598866e+02, 6.680131188771972e+01,
    -1.328068155288572e+01};

inline constexpr double kPlow = 0.02425;
inline constexpr double kPhigh = 1.0 - kPlow;

/** Central-region rational at uniform @p u. */
FLASH_ALWAYS_INLINE double
central(double u)
{
    const double q = u - 0.5;
    const double r = q * q;
    return (((((kA[0] * r + kA[1]) * r + kA[2]) * r + kA[3]) * r + kA[4]) * r
            + kA[5])
        * q
        / (((((kB[0] * r + kB[1]) * r + kB[2]) * r + kB[3]) * r + kB[4]) * r
           + 1.0);
}

// toUnitUniform(h) is exactly m * 2^-53 for the mantissa m = h >> 11,
// and scaling a double by 2^53 is exact, so the tail tests are integer
// compares: u < kPlow <=> m < ceil(kPlow * 2^53) and
// u > kPhigh <=> m > floor(kPhigh * 2^53).
inline constexpr double kLowScaled = kPlow * 0x1p53;
inline constexpr std::uint64_t kTailBelow =
    static_cast<std::uint64_t>(kLowScaled)
    + (static_cast<double>(static_cast<std::uint64_t>(kLowScaled))
       != kLowScaled);
inline constexpr std::uint64_t kTailAbove =
    static_cast<std::uint64_t>(kPhigh * 0x1p53);

/** Whether toGaussian(h) takes a tail branch. */
FLASH_ALWAYS_INLINE bool
isTail(std::uint64_t h)
{
    const std::uint64_t m = h >> 11;
    return m < kTailBelow || m > kTailAbove;
}

/**
 * toGaussian() of @p n hashes, bit-identical element by element: the
 * central rational runs branch-free over the whole batch (the tail
 * elements get a finite, discarded central value), then only the
 * tail elements (about 5 %) are recomputed with the scalar
 * toGaussian() and its libm log.
 */
FLASH_ALWAYS_INLINE void
batchBody(const std::uint64_t *h, double *z, std::size_t n)
{
    // Baseline x86-64 has no vector u64 -> double convert, so build
    // toUnitUniform()'s exact value from two 26/27-bit halves via the
    // 2^52 exponent trick: every step is exact, hence so is u.
    constexpr std::uint64_t two52 = 0x4330000000000000ULL; // bits of 2^52
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t m = h[i] >> 11;
        const double hi = std::bit_cast<double>((m >> 26) | two52) - 0x1p52;
        const double lo =
            std::bit_cast<double>((m & 0x3ffffff) | two52) - 0x1p52;
        z[i] = central((hi * 0x1p26 + lo) * 0x1p-53);
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (isTail(h[i]))
            z[i] = toGaussian(h[i]);
    }
}

} // namespace flash::util::gaussian

#endif // SENTINELFLASH_UTIL_GAUSSIAN_BATCH_HH
