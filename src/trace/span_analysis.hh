/**
 * @file
 * Span-trace analysis: rebuild span trees from a spans.jsonl file,
 * verify their structural invariants, and attribute latency.
 *
 * Consumed by tools/trace_analyze and the span-invariant tests. The
 * pipeline is parseSpanTrace() (JSON lines -> SpanForest with parent
 * links resolved and orphans recorded) followed by analyzeSpans()
 * (invariant checks, per-root-class latency totals and percentiles,
 * critical-path attribution, tail attribution and retry-storm
 * detection). writePerfettoJson() exports the forest in the Chrome /
 * Perfetto traceEvents format.
 *
 * Latency attribution walks each root's critical chain: children
 * sorted by start time, overlapping siblings resolved to the one
 * finishing later (the chain member the parent actually waited for),
 * gaps between chain members charged to the parent's own class, and
 * the walk recursing into every chain member. Summing the resulting
 * self-times over all roots of a class reproduces that class's total
 * latency; restricting the sum to roots at or beyond their class's
 * p99 attributes the tail.
 */

#ifndef SENTINELFLASH_TRACE_SPAN_ANALYSIS_HH
#define SENTINELFLASH_TRACE_SPAN_ANALYSIS_HH

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/json.hh"

namespace flash::trace
{

/** One span parsed back from a trace file. */
struct SpanNode
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::string cls;
    double startUs = 0.0;
    double durUs = 0.0;
    std::map<std::string, double> nums;
    std::map<std::string, std::string> strs;

    int parentIndex = -1;      ///< node index; -1 = root or orphan
    std::vector<int> children; ///< node indices, file order

    double endUs() const { return startUs + durUs; }

    /** Numeric attribute (fallback when absent). */
    double num(const std::string &key, double fallback = 0.0) const;
};

/** All spans of one trace file, parent links resolved. */
struct SpanForest
{
    std::vector<SpanNode> nodes; ///< file order
    std::vector<int> roots;      ///< node indices, file order
    std::vector<std::uint64_t> orphans; ///< ids with unknown parents
    std::uint64_t duplicates = 0;       ///< ids seen more than once

    bool haveSummary = false; ///< span_summary line present
    std::uint64_t declaredSpans = 0;
    std::uint64_t declaredDropped = 0;

    /** Skip-and-count totals of the file's lines. */
    util::JsonLinesStats input;
};

/**
 * Parse a JSON-lines span trace (see util::span_trace). Objects that
 * are neither a span nor the summary are ignored, so a file
 * interleaving other JSON-lines records still parses. A line that is
 * not a JSON object, or a span without a numeric id and parent, is
 * skipped and counted as malformed in SpanForest::input.
 */
SpanForest parseSpanTrace(std::istream &is);

/** Knobs of analyzeSpans(). */
struct SpanAnalysisOptions
{
    /** A root with at least this many retries is a retry storm. */
    int retryStormK = 5;
};

/** One detected retry storm. */
struct RetryStorm
{
    std::uint64_t rootId = 0;
    int retries = 0;
};

/** Results of analyzeSpans(). */
struct TraceAnalysis
{
    std::uint64_t spanCount = 0;
    std::uint64_t rootCount = 0;
    std::uint64_t orphanCount = 0;
    std::uint64_t duplicateCount = 0;

    /** Whether the summary line matched the spans actually present. */
    bool summaryMatches = true;
    std::uint64_t droppedSpans = 0;

    /** The first 20 invariant violations, human-readable. */
    std::vector<std::string> violations;
    std::uint64_t violationCount = 0;

    /**
     * Per root class: exact sum of root durations (util::ExactSum,
     * order-invariant). For core evaluator traces this reproduces the
     * metrics' latency-histogram sums bit-exactly (same multiset of
     * values, same exact accumulation).
     */
    std::map<std::string, double> rootTotalUs;

    /** Per root class: count/p50/p99/p999/max of root durations. */
    std::map<std::string, std::map<std::string, double>> rootStats;

    /** Critical-path self-time by span class, all roots. */
    std::map<std::string, double> criticalPathUs;

    /** Critical-path self-time by span class, roots >= their p99. */
    std::map<std::string, double> tailCriticalPathUs;

    /** Span class dominating the tail critical path. */
    std::string tailDominantClass;

    std::vector<RetryStorm> retryStorms;
};

/** Analyze a parsed forest; see the file comment. */
TraceAnalysis analyzeSpans(const SpanForest &forest,
                           const SpanAnalysisOptions &options = {});

/**
 * Export the forest as one Chrome/Perfetto traceEvents JSON document
 * (complete "X" events on the microsecond scale). Each root tree is
 * assigned a track ("tid") by greedy interval partitioning, so
 * overlapping requests land on separate tracks; load the file at
 * ui.perfetto.dev or chrome://tracing.
 */
void writePerfettoJson(const SpanForest &forest, std::ostream &os);

/** Serialize an analysis as one JSON object. */
void writeAnalysisJson(const TraceAnalysis &analysis, std::ostream &os);

} // namespace flash::trace

#endif // SENTINELFLASH_TRACE_SPAN_ANALYSIS_HH
