/**
 * @file
 * Bounded per-device time series over health "ssd" snapshots, with
 * exact fleet rollups.
 *
 * Every device keeps a fixed-capacity ring of WindowSamples (the
 * alert rules look back over it) plus running totals of the raw
 * windowed read deltas the health snapshots carry. The
 * totals accumulate in util::ExactSum superaccumulators, so a merged
 * rollup is a pure function of the record multiset — any demux or
 * merge order produces identical values — and, because the deltas
 * are integer-valued by construction, the rounded totals reconcile
 * with *integer equality* against the `fleet.ssd.read.*` counters of
 * the same run's fleet rollup (reconcileReadTotals()). Chip-probe
 * records contribute the model residual/confidence side channel.
 */

#ifndef SENTINELFLASH_MON_TIMESERIES_HH
#define SENTINELFLASH_MON_TIMESERIES_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mon/health_follow.hh"
#include "util/exact_sum.hh"

namespace flash::mon
{

/** One ssd-snapshot window of one device. */
struct WindowSample
{
    std::int64_t window = -1; ///< per-device record index
    double tUs = 0.0;
    bool finalSnapshot = false;

    /** Raw windowed deltas (integer-valued). */
    double reads = 0.0;
    double retries = 0.0;
    double senses = 0.0;
    double assists = 0.0;

    /** Windowed rates as emitted. */
    double retriesPerRead = 0.0;
    double sensesPerRead = 0.0;
    double assistsPerRead = 0.0;

    bool haveLatency = false;
    double readP99Us = 0.0;

    bool haveScrub = false;
    double warmFraction = 0.0;
    double refreshQueue = 0.0;
    double warmReadRate = 0.0;

    bool haveModel = false;
    double modelConfidence = 0.0;
    double modelConfidentFraction = 0.0;
};

/** Exact read-op totals of one device or a whole fleet. */
struct ReadTotals
{
    std::uint64_t windows = 0; ///< ssd snapshots accumulated
    util::ExactSum reads;
    util::ExactSum retries;
    util::ExactSum senses;
    util::ExactSum assists;

    void merge(const ReadTotals &other);

    /** Rounded totals as integers (deltas are integer-valued). */
    std::uint64_t readsInt() const;
    std::uint64_t retriesInt() const;
    std::uint64_t sensesInt() const;
    std::uint64_t assistsInt() const;
};

/** Ring of the last N windows of one device. */
class DeviceSeries
{
  public:
    DeviceSeries(int device, std::size_t capacity);

    /** Record an ssd snapshot (kind "ssd"). */
    void addSsd(const HealthRecord &rec);

    /** Record a chip probe's model side channel (kind "chip"). */
    void addChip(const HealthRecord &rec);

    int device() const { return device_; }

    /** Cohort from the record context ("fleet.X" -> "X"). */
    const std::string &cohort() const { return cohort_; }

    /** Windows currently held (<= capacity). */
    std::size_t size() const { return ring_.size(); }

    /** Ssd snapshots ever seen (not capped by the ring). */
    std::uint64_t windowsSeen() const { return totals_.windows; }

    /** Newest sample (nullptr while empty). */
    const WindowSample *latest() const;

    /**
     * Sample @p back windows before the newest (back 0 = latest);
     * nullptr when the ring does not reach that far.
     */
    const WindowSample *lookback(std::size_t back) const;

    const ReadTotals &totals() const { return totals_; }

    bool haveResidual() const { return haveResidual_; }
    double lastResidual() const { return lastResidual_; }

  private:
    int device_;
    std::size_t capacity_;
    std::string cohort_;
    std::vector<WindowSample> ring_; ///< oldest-first, bounded
    ReadTotals totals_;
    bool haveResidual_ = false;
    double lastResidual_ = 0.0;
};

/** Demultiplexed per-device series of one health stream. */
class FleetSeries
{
  public:
    explicit FleetSeries(std::size_t ringCapacity);

    /**
     * Route one record to its device's series. Returns the updated
     * series when the record was an ssd snapshot (the alert engine
     * evaluates on those), nullptr otherwise.
     */
    const DeviceSeries *add(const HealthRecord &rec);

    /** Per-device series, device-id order. */
    const std::map<int, DeviceSeries> &devices() const
    {
        return devices_;
    }

    /** Exact rollup over all devices (id-order merge; see ExactSum). */
    ReadTotals rollup() const;

  private:
    std::size_t ringCapacity_;
    std::map<int, DeviceSeries> devices_;
};

/** Cohort name from a health context ("fleet.worn" -> "worn"). */
std::string cohortOfContext(const std::string &context);

/**
 * Reconcile monitor totals against the `fleet.ssd.read.*` counters
 * of the same run's fleet rollup record, with integer equality:
 * page_ops == reads, attempts == reads + retries, sense_ops ==
 * senses, assist_reads == assists. Empty string when everything
 * matches, else a description of the first mismatch.
 */
std::string
reconcileReadTotals(const ReadTotals &totals,
                    const std::map<std::string, std::uint64_t> &counters);

} // namespace flash::mon

#endif // SENTINELFLASH_MON_TIMESERIES_HH
