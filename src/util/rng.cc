#include "util/rng.hh"

#include <cmath>

#include "util/gaussian_batch.hh"
#include "util/logging.hh"

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

using gaussian::kPhigh;
using gaussian::kPlow;

// Acklam's rational approximation to the inverse normal CDF, tail
// region (the central one is gaussian::central).
constexpr double kC[] = {
    -7.784894002430293e-03, -3.223964580411365e-01,
    -2.400758277161838e+00, -2.549732539343734e+00,
    4.374664141464968e+00, 2.938163982698783e+00};
constexpr double kD[] = {
    7.784695709041462e-03, 3.224671290700398e-01,
    2.445134137142996e+00, 3.754408661907416e+00};

/** Tail rational at q = sqrt(-2 log p). */
inline double
tailGaussian(double q)
{
    return (((((kC[0] * q + kC[1]) * q + kC[2]) * q + kC[3]) * q + kC[4]) * q
            + kC[5])
        / ((((kD[0] * q + kD[1]) * q + kD[2]) * q + kD[3]) * q + 1.0);
}

void
batchBaseline(const std::uint64_t *h, double *z, std::size_t n)
{
    gaussian::batchBody(h, z, n);
}

FLASH_TARGET_V3 void
batchV3(const std::uint64_t *h, double *z, std::size_t n)
{
    gaussian::batchBody(h, z, n);
}

FLASH_TARGET_V4 void
batchV4(const std::uint64_t *h, double *z, std::size_t n)
{
    gaussian::batchBody(h, z, n);
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
    return gaussian::central(u);
}

void
toGaussianBatch(const std::uint64_t *h, double *z, std::size_t n,
                CpuLevel level)
{
    fatalIf(!cpuLevelSupported(level),
            "toGaussianBatch: this CPU cannot run the requested level");
    forCpuLevel(level, batchBaseline, batchV3, batchV4)(h, z, n);
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
