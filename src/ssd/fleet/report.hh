/**
 * @file
 * Fleet tail attribution over the JSON lines writeFleetJsonLines()
 * persists (the library behind tools/fleet_report).
 *
 * parseFleetLines() reads the per-device records back through
 * util::JsonLinesReader — skipping and counting malformed or truncated
 * lines instead of failing, so a partially written fleet file still
 * reports — and rebuilds every device's lossless read-latency
 * histogram (host-side, reads only). scanHealth() reads a fleet
 * health file through mon::HealthFollower.
 * attributeTail() then merges them into the fleet read-latency
 * distribution and attributes the tail: because all histograms share
 * one bin layout, "observations in bins at or beyond the fleet's
 * p99/p999 bin" partitions exactly across devices, so each device's
 * tail contribution is an integer count that reconciles with the
 * fleet histogram's mass with no rounding — the invariant
 * checkReconciliation() gates on.
 */

#ifndef SENTINELFLASH_SSD_FLEET_REPORT_HH
#define SENTINELFLASH_SSD_FLEET_REPORT_HH

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "mon/health_follow.hh"
#include "util/metrics.hh"

namespace flash::ssd::fleet
{

/** One device line parsed back from a fleet file. */
struct ReportDevice
{
    int device = -1;
    std::string cohort;
    std::string workload;
    std::uint64_t requests = 0;
    double iops = 0.0;
    double readP50Us = 0.0;
    double readP99Us = 0.0;
    double readP999Us = 0.0;
    std::uint64_t footprintBytes = 0;

    /** Mapping stack ("" when the file predates the FTL fields). */
    std::string ftl;
    std::string gcPolicy;

    /** Exact write-amplification ratio (0/0 when absent). */
    std::uint64_t wafNum = 0;
    std::uint64_t wafDen = 0;

    util::LatencyHistogram latency; ///< rebuilt lossless bins
};

/** Everything read back from one fleet JSON-lines file. */
struct FleetReportData
{
    std::vector<ReportDevice> devices; ///< device-id order

    bool haveRollup = false;
    std::uint64_t rollupDevices = 0;
    std::uint64_t rollupRequests = 0;
    util::LatencyHistogram rollupLatency;

    /**
     * The rollup record's "metrics.counters" object (e.g.
     * "fleet.ssd.read.page_ops"), for integer-exact reconciliation
     * against the health stream's summed window deltas (src/mon).
     */
    std::map<std::string, std::uint64_t> rollupCounters;

    /** Well-formed fleet records: device (incl. duplicate) and rollup. */
    std::uint64_t recordLines = 0;

    /**
     * Lines skipped: invalid JSON, a non-object, truncated, or a
     * fleet record with missing or mistyped fields.
     */
    std::uint64_t malformedLines = 0;

    /** Objects without a string "fleet" kind (interleaved ok). */
    std::uint64_t ignoredLines = 0;

    /** Well-formed device lines dropped for repeating a device id. */
    std::uint64_t duplicateLines = 0;
};

/**
 * Parse a fleet JSON-lines stream. Never throws on bad input: any
 * line that is not a JSON object, or a fleet record that lacks the
 * required fields, counts as malformed and is skipped; duplicate
 * device ids keep the first record (later well-formed ones count as
 * duplicates). Unknown fields are ignored (forward compatibility).
 * Devices come back sorted by id.
 */
FleetReportData parseFleetLines(std::istream &is);

/** One device's share of the fleet tail. */
struct TailShare
{
    int device = -1;
    std::string cohort;
    std::uint64_t requests = 0;
    double readP99Us = 0.0;
    std::uint64_t tail99 = 0;  ///< observations in bins >= fleet p99 bin
    std::uint64_t tail999 = 0; ///< observations in bins >= fleet p999 bin
    double share99 = 0.0;      ///< tail99 / fleet tail99
    double share999 = 0.0;
};

/** Aggregate view of one cohort. */
struct CohortSummary
{
    std::string cohort;
    int devices = 0;
    std::uint64_t requests = 0;
    std::uint64_t tail99 = 0;
    double share99 = 0.0;
    double meanReadP99Us = 0.0; ///< mean of per-device p99s

    /**
     * Cohort write amplification: the exact integer sums of the
     * member devices' waf_num / waf_den (0/0 when the file carried no
     * WAF fields), so the cohort ratio is reconstruction-exact rather
     * than a mean of per-device ratios.
     */
    std::uint64_t wafNum = 0;
    std::uint64_t wafDen = 0;
};

/** Fleet-level tail attribution. */
struct TailAttribution
{
    util::LatencyHistogram fleet; ///< merged from the device bins

    int bin99 = -1;  ///< fleet percentileBin(0.99)
    int bin999 = -1; ///< fleet percentileBin(0.999)
    double p99Us = 0.0;
    double p999Us = 0.0;
    std::uint64_t tail99 = 0;  ///< fleet mass at/above bin99
    std::uint64_t tail999 = 0; ///< fleet mass at/above bin999

    /**
     * Every device's share, sorted by tail99 descending (ties: lower
     * device id first). The first K rows are the top-K offender
     * table.
     */
    std::vector<TailShare> devices;

    /** Devices needed to cover half resp. 90% of the p99 tail mass. */
    int devicesForHalfTail = 0;
    int devicesFor90Tail = 0;

    /** Per-cohort aggregation, cohort-name order. */
    std::vector<CohortSummary> cohorts;
};

/** Attribute the fleet tail; see the file comment. */
TailAttribution attributeTail(const FleetReportData &data);

/**
 * The exactness gate: per-device tail counts must sum to the fleet
 * tail mass (integer equality, p99 and p999), and when the file
 * carried a rollup record, the merged device bins must reproduce its
 * count, bins, min and max exactly and its sum to 1e-9 relative (the
 * serialized per-device sums are exactly-rounded doubles, so
 * re-merging them can differ from the rollup's exact total by ulps).
 * Returns an empty string when everything reconciles, else a
 * human-readable description of the first mismatch.
 */
std::string checkReconciliation(const FleetReportData &data,
                                const TailAttribution &tail);

/** What a fleet health file says about its own completeness. */
struct HealthScan
{
    mon::FollowStats stats;    ///< record, malformed and ignored counts
    std::uint64_t devices = 0; ///< distinct "device" ids seen
    /**
     * Whether the per-device records appear contiguously (the ordered
     * per-device flush contract): false when a device's records
     * resume after another device's began.
     */
    bool ordered = true;

    /** Records carrying a predictive-model confidence field. */
    std::uint64_t modelRecords = 0;

    /**
     * Last-seen model confidence per device id
     * ("model_mean_confidence" of ssd snapshots, falling back to a
     * chip probe's per-block "model_confidence"). Lets the report
     * attribute tail mass to low-confidence devices/blocks.
     */
    std::map<int, double> modelConfidence;
};

/** Scan a fleet health file (skip-and-count, never throws). */
HealthScan scanHealth(std::istream &is);

/** Print the human-readable report (top @p top_k offender table). */
void printReport(std::ostream &os, const FleetReportData &data,
                 const TailAttribution &tail, int top_k);

/**
 * Serialize the attribution as one JSON object, including the input
 * hygiene counts (malformed / ignored / duplicate lines). @p health
 * adds a "health" sub-object with the health-file scan counts when a
 * health file was scanned (nullptr omits it).
 */
void writeReportJson(std::ostream &os, const FleetReportData &data,
                     const TailAttribution &tail,
                     const HealthScan *health = nullptr);

} // namespace flash::ssd::fleet

#endif // SENTINELFLASH_SSD_FLEET_REPORT_HH
