/**
 * @file
 * Streaming and batch statistics helpers used across experiments.
 */

#ifndef SENTINELFLASH_UTIL_STATS_HH
#define SENTINELFLASH_UTIL_STATS_HH

#include <cstddef>
#include <limits>
#include <vector>

namespace flash::util
{

/**
 * Numerically stable streaming accumulator (Welford) for mean,
 * variance, min and max.
 */
class RunningStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

    /** Number of observations so far. */
    std::size_t count() const { return n_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 for fewer than two samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest observation (+inf when empty). */
    double min() const { return min_; }

    /** Largest observation (-inf when empty). */
    double max() const { return max_; }

    /** Sum of all observations. */
    double sum() const { return mean_ * static_cast<double>(n_); }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Arithmetic mean of a sample (0 when empty). */
double mean(const std::vector<double> &values);

/** Sample standard deviation of a sample (0 for n < 2). */
double stddev(const std::vector<double> &values);

/** Pearson correlation coefficient of two equal-length samples. */
double pearson(const std::vector<double> &x, const std::vector<double> &y);

} // namespace flash::util

#endif // SENTINELFLASH_UTIL_STATS_HH
