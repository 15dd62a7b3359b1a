/**
 * @file
 * Counter-based deterministic random number utilities.
 *
 * The chip model derives every cell's static noise from a pure hash of
 * its address, so a simulated chip is fully reproducible from a single
 * seed and requires no per-cell storage. Per-read sensing noise mixes
 * in a read-sequence counter.
 */

#ifndef SENTINELFLASH_UTIL_RNG_HH
#define SENTINELFLASH_UTIL_RNG_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "util/cpu_level.hh"

namespace flash::util
{

/**
 * Mix a 64-bit value into a well-distributed 64-bit hash
 * (the splitmix64 finalizer).
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combine two 64-bit values into one hash. */
std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b);

/** Hash an arbitrary number of 64-bit words. */
std::uint64_t hashWords(std::initializer_list<std::uint64_t> words);

/** Rotate left. */
constexpr std::uint64_t
rotl64(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

/** Absorb one more word into a fastHashState(). */
constexpr std::uint64_t
fastHashAbsorb(std::uint64_t h, std::uint64_t word)
{
    return rotl64(h ^ (word * 0xc2b2ae3d27d4eb4fULL), 29)
        * 0x9e3779b97f4a7c15ULL;
}

/**
 * Unfinalized state of fastHash() over a prefix of its words:
 * fastHash(a, b..., w) == mix64(fastHashAbsorb(fastHashState(a, b...),
 * w)). Per-cell loops hash the shared (key, block, wordline) prefix
 * once and absorb only the column.
 */
template <typename... Words>
constexpr std::uint64_t
fastHashState(std::uint64_t first, Words... rest)
{
    std::uint64_t h = first * 0x9e3779b97f4a7c15ULL;
    ((h = fastHashAbsorb(h, static_cast<std::uint64_t>(rest))), ...);
    return h;
}

/**
 * Fast keyed hash of a handful of words for the per-cell hot paths.
 * Weaker mixing per word than hashWords() but a final strong
 * finalizer; plenty for simulation noise.
 */
template <typename... Words>
constexpr std::uint64_t
fastHash(std::uint64_t first, Words... rest)
{
    return mix64(fastHashState(first, rest...));
}

/** Map a 64-bit hash to a uniform double in [0, 1). */
double toUnitUniform(std::uint64_t h);

/**
 * Map a 64-bit hash to a standard-normal sample via the inverse
 * normal CDF (Wichura AS241-style rational approximation; absolute
 * error far below what a Vth model can notice).
 */
double toGaussian(std::uint64_t h);

/**
 * toGaussian() of @p n hashes, bit-identical element by element. The
 * central rational runs branch-free over the whole batch at the
 * vector width of @p level (util/cpu_level.hh), which the CPU must
 * run; only the tail elements (u < plow or u > phigh, about 5 %) are
 * recomputed with the scalar toGaussian().
 */
void toGaussianBatch(const std::uint64_t *h, double *z, std::size_t n,
                     CpuLevel level = selectedCpuLevel());

/**
 * A small keyed generator for streaming use (experiment harnesses,
 * trace generation). Deterministic for a given seed; cheap to copy.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(mix64(seed ^ kStreamSalt)) {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        state_ += 0x9e3779b97f4a7c15ULL;
        return mix64(state_);
    }

    /** Uniform double in [0, 1). */
    double uniform() { return toUnitUniform(next()); }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t uniformInt(std::uint64_t n) { return next() % n; }

    /** Standard normal sample. */
    double gaussian() { return toGaussian(next()); }

    /** Normal sample with given mean and standard deviation. */
    double gaussian(double mean, double sigma) { return mean + sigma * gaussian(); }

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p) { return uniform() < p; }

    /** Exponential sample with the given mean. */
    double exponential(double mean);

    /** Poisson sample (inversion for small lambda, normal approx above). */
    std::uint64_t poisson(double lambda);

  private:
    static constexpr std::uint64_t kStreamSalt = 0xa02bdbf7bb3c0a7ULL;

    std::uint64_t state_;
};

} // namespace flash::util

#endif // SENTINELFLASH_UTIL_RNG_HH
