#include "util/rng.hh"

#include <bit>
#include <cmath>

namespace flash::util
{

std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

std::uint64_t
hashWords(std::initializer_list<std::uint64_t> words)
{
    std::uint64_t h = 0x243f6a8885a308d3ULL; // pi fractional bits
    for (std::uint64_t w : words)
        h = hashCombine(h, w);
    return h;
}

double
toUnitUniform(std::uint64_t h)
{
    // Use the top 53 bits for a dense double in [0, 1).
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

namespace
{

// Acklam's rational approximation to the inverse normal CDF.
constexpr double kA[] = {
    -3.969683028665376e+01, 2.209460984245205e+02,
    -2.759285104469687e+02, 1.383577518672690e+02,
    -3.066479806614716e+01, 2.506628277459239e+00};
constexpr double kB[] = {
    -5.447609879822406e+01, 1.615858368580409e+02,
    -1.556989798598866e+02, 6.680131188771972e+01,
    -1.328068155288572e+01};
constexpr double kC[] = {
    -7.784894002430293e-03, -3.223964580411365e-01,
    -2.400758277161838e+00, -2.549732539343734e+00,
    4.374664141464968e+00, 2.938163982698783e+00};
constexpr double kD[] = {
    7.784695709041462e-03, 3.224671290700398e-01,
    2.445134137142996e+00, 3.754408661907416e+00};

constexpr double kPlow = 0.02425;
constexpr double kPhigh = 1.0 - kPlow;

/** Central-region rational, shared by the scalar and batch paths. */
inline double
centralGaussian(double u)
{
    const double q = u - 0.5;
    const double r = q * q;
    return (((((kA[0] * r + kA[1]) * r + kA[2]) * r + kA[3]) * r + kA[4]) * r
            + kA[5])
        * q
        / (((((kB[0] * r + kB[1]) * r + kB[2]) * r + kB[3]) * r + kB[4]) * r
           + 1.0);
}

/** Tail rational at q = sqrt(-2 log p). */
inline double
tailGaussian(double q)
{
    return (((((kC[0] * q + kC[1]) * q + kC[2]) * q + kC[3]) * q + kC[4]) * q
            + kC[5])
        / ((((kD[0] * q + kD[1]) * q + kD[2]) * q + kD[3]) * q + 1.0);
}

} // namespace

double
toGaussian(std::uint64_t h)
{
    // Keep u strictly inside (0, 1) so the inverse CDF stays finite.
    double u = toUnitUniform(h);
    constexpr double eps = 1e-12;
    if (u < eps)
        u = eps;
    if (u > 1.0 - eps)
        u = 1.0 - eps;

    if (u < kPlow)
        return tailGaussian(std::sqrt(-2.0 * std::log(u)));
    if (u > kPhigh)
        return -tailGaussian(std::sqrt(-2.0 * std::log(1.0 - u)));
    return centralGaussian(u);
}

void
toGaussianBatch(const std::uint64_t *h, double *z, std::size_t n)
{
    // Tail elements get a (finite, discarded) central value first so
    // this loop has no branch and vectorizes. Baseline x86-64 has no
    // vector u64 -> double convert, so build toUnitUniform()'s exact
    // value from two 26/27-bit halves via the 2^52 exponent trick:
    // every step is exact, hence so is u.
    constexpr std::uint64_t two52 = 0x4330000000000000ULL; // bits of 2^52
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t m = h[i] >> 11;
        const double hi = std::bit_cast<double>((m >> 26) | two52) - 0x1p52;
        const double lo =
            std::bit_cast<double>((m & 0x3ffffff) | two52) - 0x1p52;
        z[i] = centralGaussian((hi * 0x1p26 + lo) * 0x1p-53);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double u = toUnitUniform(h[i]);
        if (u < kPlow || u > kPhigh)
            z[i] = toGaussian(h[i]);
    }
}

double
Rng::exponential(double mean)
{
    double u = uniform();
    if (u >= 1.0)
        u = 1.0 - 1e-12;
    return -mean * std::log1p(-u);
}

std::uint64_t
Rng::poisson(double lambda)
{
    if (lambda <= 0.0)
        return 0;
    if (lambda < 30.0) {
        // Knuth inversion.
        const double limit = std::exp(-lambda);
        double p = 1.0;
        std::uint64_t k = 0;
        do {
            ++k;
            p *= uniform();
        } while (p > limit);
        return k - 1;
    }
    // Normal approximation with continuity correction.
    const double x = gaussian(lambda, std::sqrt(lambda));
    return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

} // namespace flash::util
