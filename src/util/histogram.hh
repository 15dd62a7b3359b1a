/**
 * @file
 * Fixed-bin integer histogram with prefix sums.
 *
 * The chip model bins sensed threshold voltages (in DAC units) into
 * per-state histograms; error counts for any candidate read voltage
 * are then answered with two prefix-sum lookups instead of a pass over
 * the cells.
 */

#ifndef SENTINELFLASH_UTIL_HISTOGRAM_HH
#define SENTINELFLASH_UTIL_HISTOGRAM_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace flash::util
{

/**
 * Histogram over integer values in [lo, hi] with unit-width bins.
 * Values outside the range are clamped into the edge bins, which is
 * the behaviour the Vth model wants (a cell far in a tail is still a
 * cell on that side of every threshold).
 */
class Histogram
{
  public:
    /** Construct a histogram covering [lo, hi] inclusive. */
    Histogram(int lo, int hi);

    /** Add one observation (clamped into range). */
    void
    add(int value)
    {
        ++bins_[static_cast<std::size_t>(std::clamp(value, lo_, hi_) - lo_)];
        ++total_;
        prefixValid_ = false;
    }

    /** Add a batch of observations. */
    void add(const std::vector<int> &values);

    /** Lowest representable value. */
    int lo() const { return lo_; }

    /** Highest representable value. */
    int hi() const { return hi_; }

    /** Total number of observations. */
    std::uint64_t total() const { return total_; }

    /** Count in the bin for @p value (clamped). */
    std::uint64_t binCount(int value) const;

    /**
     * Number of observations with value <= v. Values below lo() give
     * 0; values above hi() give total().
     */
    std::uint64_t countAtOrBelow(int v) const;

    /** Number of observations with value > v. */
    std::uint64_t countAbove(int v) const { return total_ - countAtOrBelow(v); }

    /** Mean of the recorded observations (clamped values). */
    double mean() const;

  private:
    void ensurePrefix() const;

    int lo_;
    int hi_;
    std::uint64_t total_ = 0;
    std::vector<std::uint64_t> bins_;
    // Lazily rebuilt inclusive prefix sums.
    mutable std::vector<std::uint64_t> prefix_;
    mutable bool prefixValid_ = false;
};

} // namespace flash::util

#endif // SENTINELFLASH_UTIL_HISTOGRAM_HH
