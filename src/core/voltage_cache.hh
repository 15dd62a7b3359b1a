/**
 * @file
 * Per-block inferred-voltage cache.
 *
 * The paper's characterization (and the history-based schemes it
 * compares against) shows optimal read voltages are strongly
 * correlated across the wordlines of a block: once one read session
 * has inferred and verified a sentinel offset, later reads of the
 * same block can seed their first attempt from it and skip the
 * sentinel assist read entirely when the seeded attempt decodes.
 *
 * An entry is keyed by the block's aging epoch (P/E cycles, effective
 * retention hours, retention temperature); any epoch change makes the
 * entry stale, because the stored offset described a distribution
 * that no longer exists. Hit/miss/stale/store counters export through
 * the util::metrics registry under the "cache.*" namespace.
 *
 * Thread-safe (internally locked), but note that sharing one cache
 * across concurrently-evaluated sessions makes results depend on
 * completion order; the deterministic harnesses attach a cache only
 * to serial (threads=1) runs. The cache is strictly opt-in — no
 * policy uses one unless it is explicitly attached.
 */

#ifndef SENTINELFLASH_CORE_VOLTAGE_CACHE_HH
#define SENTINELFLASH_CORE_VOLTAGE_CACHE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "nandsim/voltage_model.hh"
#include "util/metrics.hh"

namespace flash::core
{

/** Aging epoch a cached offset was inferred under. */
struct BlockEpoch
{
    std::uint32_t peCycles = 0;
    double retentionHours = 0.0;
    double retentionTempC = 25.0;

    /**
     * Two real-valued aging parameters count as the same epoch when
     * they agree to a relative 1e-6 (absolute below 1.0). Aging
     * checkpoints that save and restore retention state reproduce the
     * hours/temperature through floating-point round trips; exact
     * `double` equality would let that rounding spuriously invalidate
     * live cache entries, while any physically meaningful drift is
     * orders of magnitude above the tolerance.
     */
    static bool
    nearlyEqual(double a, double b)
    {
        const double tol =
            1e-6 * std::max({1.0, std::fabs(a), std::fabs(b)});
        return std::fabs(a - b) <= tol;
    }

    bool
    operator==(const BlockEpoch &o) const
    {
        return peCycles == o.peCycles
            && nearlyEqual(retentionHours, o.retentionHours)
            && nearlyEqual(retentionTempC, o.retentionTempC);
    }
};

/** Epoch of a block's current aging state. */
inline BlockEpoch
epochOf(const nand::BlockAge &age)
{
    return BlockEpoch{age.peCycles, age.effRetentionHours,
                      age.retentionTempC};
}

/** Per-block cache of the last successfully verified sentinel offset. */
class VoltageCache
{
  public:
    /** Lifetime counters. */
    struct Stats
    {
        std::uint64_t hits = 0;    ///< valid entry found
        std::uint64_t misses = 0;  ///< no entry for the block
        std::uint64_t stales = 0;  ///< entry dropped on epoch change
        std::uint64_t stores = 0;  ///< offsets recorded by read sessions
        std::uint64_t rewarms = 0; ///< offsets recorded by scrub probes
    };

    /**
     * Cached sentinel offset of @p block if one exists for @p epoch.
     * An entry from a different epoch is dropped and counted stale;
     * every call counts exactly one of hit/miss/stale.
     */
    std::optional<int> lookup(int block, const BlockEpoch &epoch);

    /** Record the offset of a successful read session. */
    void store(int block, const BlockEpoch &epoch, int sentinel_offset);

    /**
     * Record an offset inferred by a background scrub probe. Same
     * effect as store() but counted separately, so hit-rate analysis
     * can attribute warm entries to the scrubber vs foreground reads.
     */
    void rewarm(int block, const BlockEpoch &epoch, int sentinel_offset);

    /** Number of live entries. */
    std::size_t size() const;

    /** Counter snapshot. */
    Stats stats() const;

    /**
     * Add the counters to a metrics registry as cache.hit,
     * cache.miss, cache.stale, cache.store and cache.rewarm.
     */
    void exportMetrics(util::MetricsRegistry &metrics) const;

  private:
    struct Entry
    {
        BlockEpoch epoch;
        int sentinelOffset = 0;
    };

    mutable std::mutex mutex_;
    std::unordered_map<int, Entry> entries_;
    Stats stats_;
};

} // namespace flash::core

#endif // SENTINELFLASH_CORE_VOLTAGE_CACHE_HH
