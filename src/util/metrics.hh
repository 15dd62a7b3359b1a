/**
 * @file
 * Lightweight metrics registry for the read pipeline: named counters
 * and fixed-bin latency histograms with percentile queries.
 *
 * Everything here is built for deterministic, mergeable accumulation:
 * a histogram is a vector of integer bin counts (log2 buckets split
 * into linear sub-bins, HdrHistogram style), so merging per-shard
 * instances bin-wise is exactly equivalent to a single-pass fill and
 * the exported percentiles are bit-identical at any thread count.
 * Observation sums are held in a util::ExactSum superaccumulator, so
 * even the floating-point totals are a pure function of the multiset
 * of observations: merging K shard registries in any permutation
 * exports the same bytes as one registry that saw everything — the
 * property the fleet rollups rely on. (Recording itself is still not
 * thread-safe: accumulate per shard and merge.)
 */

#ifndef SENTINELFLASH_UTIL_METRICS_HH
#define SENTINELFLASH_UTIL_METRICS_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/exact_sum.hh"

namespace flash::util
{

class JsonValue;

/** Format a double for JSON (shortest round-trip, deterministic). */
std::string jsonNumber(double v);

/**
 * Write a JSON number; integral values print without an exponent or
 * decimal point so counts stay greppable (shared by the trace sinks).
 */
void writeJsonValue(std::ostream &os, double v);

/**
 * Escape a string for embedding in JSON: quotes, backslashes and
 * control characters are escaped; non-ASCII bytes (UTF-8) pass
 * through verbatim, which is valid JSON. Round-trips exactly through
 * util::parseJson.
 */
std::string jsonEscape(const std::string &s);

/**
 * Fixed-bin latency histogram over non-negative values (microseconds
 * by convention). Bin layout: one bin per value below 1.0, then each
 * power-of-two range [2^e, 2^(e+1)) is split into kSubBins linear
 * sub-bins, bounding the relative quantization error of a percentile
 * by 1/kSubBins. Bins are integer counts, so merge() is exact and
 * order-independent.
 */
class LatencyHistogram
{
  public:
    /** Linear sub-bins per power-of-two range. */
    static constexpr int kSubBins = 64;

    /** Record one observation (negatives, NaN and inf clamp to 0). */
    void
    add(double v)
    {
        if (v < 0.0 || !std::isfinite(v))
            v = 0.0;
        const auto idx = static_cast<std::size_t>(binOf(v));
        if (idx >= bins_.size())
            grow(idx);
        ++bins_[idx];
        if (count_ == 0) {
            min_ = max_ = v;
        } else {
            min_ = std::min(min_, v);
            max_ = std::max(max_, v);
        }
        ++count_;
        sum_.add(v);
    }

    /** Merge another histogram into this one (exact, bin-wise). */
    void merge(const LatencyHistogram &other);

    /** Number of observations. */
    std::uint64_t count() const { return count_; }

    /**
     * Sum of observations: the exact total rounded once to double, so
     * it is identical however the observations were sharded or the
     * shards merged (see util::ExactSum).
     */
    double sum() const { return sum_.value(); }

    /** The exact sum behind sum() (exposed for the reference checks). */
    const ExactSum &exactSum() const { return sum_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const
    {
        return count_ ? sum_.value() / static_cast<double>(count_) : 0.0;
    }

    /** Smallest observation (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }

    /** Largest observation (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }

    /**
     * Quantile @p q in [0, 1] by nearest rank over the bins; returns
     * the midpoint of the containing bin (clamped to the observed
     * min/max), 0 when empty. Monotone non-decreasing in q.
     */
    double percentile(double q) const;

    /**
     * Bin index holding the nearest-rank quantile @p q (-1 when
     * empty). Because every histogram shares one bin layout, tail
     * masses defined as "observations in bins >= percentileBin(q)"
     * partition exactly across shards — the fleet tail attribution
     * reconciles per-device counts against the rollup with integer
     * equality.
     */
    int percentileBin(double q) const;

    /** Observations in bins >= @p bin (whole count when bin <= 0). */
    std::uint64_t countFromBin(int bin) const;

    /** Raw bin counts (index = binOf value; trailing bins trimmed). */
    const std::vector<std::uint64_t> &bins() const { return bins_; }

    /**
     * Export the full bin vector as one JSON object:
     * {"count": N, "min": m, "max": M, "sum": s,
     *  "bins": [[index, count], ...]} (non-zero bins only, ascending
     * index). The lossless form fleet drivers persist per device so
     * offline tools can re-merge and re-query histograms exactly.
     */
    void writeBinsJson(std::ostream &os) const;

    /**
     * Rebuild a histogram from a writeBinsJson() document (fatal on
     * malformed input). Counts, bins, min, max and percentiles round-
     * trip exactly; the rebuilt sum is the serialized (rounded) sum.
     */
    static LatencyHistogram fromBinsJson(const JsonValue &v);

    /** Heap bytes held by this histogram (bin storage). */
    std::size_t footprintBytes() const;

    /**
     * Bin index of a value (exposed for tests). Below 1, NaN included:
     * bin 0. At or above 1, read from the IEEE-754 bits: the biased
     * exponent e picks the range [2^(e-1023), 2^(e-1022)), capped at
     * range 63, and the mantissa's top six bits the linear sub-bin.
     */
    static int
    binOf(double v)
    {
        static_assert(kSubBins == 64, "six mantissa bits per sub-bin");
        if (!(v >= 1.0))
            return 0;
        const auto bits = std::bit_cast<std::uint64_t>(v);
        const int range = std::min(static_cast<int>(bits >> 52) - 1023, 63);
        return 1 + range * kSubBins + static_cast<int>(bits >> 46 & 63);
    }

    /** Lower edge of bin @p idx (exposed for tests). */
    static double binLo(int idx);

    /** Upper edge of bin @p idx (exposed for tests). */
    static double binHi(int idx);

    /**
     * Export as a JSON object: count, sum, min, max, mean and the
     * standard percentiles p50/p90/p99/p999.
     */
    void writeJson(std::ostream &os) const;

  private:
    /** Extends the bins to hold index @p idx (zero-filled). */
    void grow(std::size_t idx);

    std::vector<std::uint64_t> bins_;
    std::uint64_t count_ = 0;
    ExactSum sum_;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Registry of named counters and latency histograms. Names are
 * dot-separated paths ("ssd.read.queue_us"); export order is the
 * lexicographic name order, so two registries with equal content
 * serialize to equal bytes.
 *
 * Not thread-safe: accumulate per shard and merge(), or record from
 * one thread only.
 *
 * Name-keyed add()/observe() serve set-up, export and cold paths;
 * per-op paths update through a CounterHandle / HistogramHandle bound
 * once (DESIGN.md §10).
 */
class MetricsRegistry
{
  public:
    /** Increment a named counter. */
    void add(const std::string &name, std::uint64_t delta = 1);

    /** Current value of a counter (0 when never incremented). */
    std::uint64_t counter(const std::string &name) const;

    /** Record an observation into a named histogram. */
    void observe(const std::string &name, double value);

    /** Histogram by name (created empty on first access). */
    LatencyHistogram &histogram(const std::string &name);

    /** Histogram lookup without creation (nullptr when absent). */
    const LatencyHistogram *findHistogram(const std::string &name) const;

    /** Merge counters and histograms of @p other into this. */
    void merge(const MetricsRegistry &other);

    /**
     * Merge @p other with every name prefixed by @p prefix — the
     * fleet rollup path ("ssd.read.latency_us" merges into
     * "fleet.ssd.read.latency_us"). Exact like merge(): merging K
     * registries in any permutation exports identical bytes.
     */
    void mergePrefixed(const MetricsRegistry &other,
                       const std::string &prefix);

    /** Approximate heap bytes held (names, counters, histograms). */
    std::size_t footprintBytes() const;

    /** All counters (name-ordered). */
    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }

    /** All histograms (name-ordered). */
    const std::map<std::string, LatencyHistogram> &histograms() const
    {
        return histograms_;
    }

    /**
     * Export as one JSON object:
     * {"counters": {name: value, ...},
     *  "histograms": {name: {count, sum, min, max, mean,
     *                        p50, p90, p99, p999}, ...}}
     */
    void writeJson(std::ostream &os) const;

    /** writeJson() into a string. */
    std::string toJson() const;

  private:
    friend class CounterHandle;
    friend class HistogramHandle;

    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, LatencyHistogram> histograms_;
};

/**
 * A named counter of one registry, updated without a name: per-op
 * paths bind a handle once and skip the string build and map walk of
 * MetricsRegistry::add on every update.
 *
 * Binding is lazy. The counter is created on the first add() —
 * add(0) included — exactly as add(name, 0) would, so a handle that
 * is never updated leaves the export untouched. The bound slot lives
 * in the registry's map, whose nodes survive inserts and merge() but
 * not a move, an assignment or destruction of the registry: rebuild
 * the handle after any of those.
 *
 * The handle keeps @p name as a pointer, so a handle allocates
 * nothing; the name must outlive it (a string literal, or a string
 * the handle's owner keeps).
 */
class CounterHandle
{
  public:
    CounterHandle(MetricsRegistry &registry, const char *name)
        : registry_(&registry), name_(name)
    {
    }

    /** Same as MetricsRegistry::add(name, delta). */
    void
    add(std::uint64_t delta = 1)
    {
        if (slot_ == nullptr)
            bind();
        *slot_ += delta;
    }

  private:
    void bind();

    MetricsRegistry *registry_;
    const char *name_;
    std::uint64_t *slot_ = nullptr;
};

/**
 * A named histogram of one registry, updated without a name; bound
 * lazily on the first observe(), with the same lifetime rules as
 * CounterHandle.
 */
class HistogramHandle
{
  public:
    HistogramHandle(MetricsRegistry &registry, const char *name)
        : registry_(&registry), name_(name)
    {
    }

    /** Same as MetricsRegistry::observe(name, value). */
    void
    observe(double value)
    {
        if (slot_ == nullptr)
            bind();
        slot_->add(value);
    }

  private:
    void bind();

    MetricsRegistry *registry_;
    const char *name_;
    LatencyHistogram *slot_ = nullptr;
};

} // namespace flash::util

#endif // SENTINELFLASH_UTIL_METRICS_HH
