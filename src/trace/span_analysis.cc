#include "trace/span_analysis.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace flash::trace
{

namespace
{

/** Nearest-rank percentile of a sorted sample (0 when empty). */
double
percentileOf(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t n = sorted.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::min(std::max<std::size_t>(rank, 1), n);
    return sorted[rank - 1];
}

/**
 * Relative tolerance of the interval invariants. Child spans are
 * timed term-by-term while parents carry the canonical closed form,
 * so sums agree only to rounding.
 */
constexpr double kEps = 1e-9;

/** Violation messages kept verbatim (the rest only counted). */
constexpr int kMaxViolations = 20;

/** Interval tolerance at the scale of one parent span. */
double
toleranceOf(const SpanNode &parent)
{
    return kEps
        * std::max({1.0, std::abs(parent.startUs),
                    std::abs(parent.endUs())});
}

/** Children of @p node sorted by start time (stable on ties). */
std::vector<int>
childrenByStart(const SpanForest &forest, const SpanNode &node)
{
    std::vector<int> order = node.children;
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return forest.nodes[static_cast<std::size_t>(a)].startUs
            < forest.nodes[static_cast<std::size_t>(b)].startUs;
    });
    return order;
}

/**
 * The node's critical chain: children in start order with overlapping
 * siblings resolved to the one finishing later (what the parent
 * actually waited for).
 */
std::vector<int>
criticalChain(const SpanForest &forest, const SpanNode &node)
{
    const double tol = toleranceOf(node);
    std::vector<int> chain;
    for (int c : childrenByStart(forest, node)) {
        const SpanNode &child = forest.nodes[static_cast<std::size_t>(c)];
        if (chain.empty()) {
            chain.push_back(c);
            continue;
        }
        const SpanNode &last =
            forest.nodes[static_cast<std::size_t>(chain.back())];
        if (child.startUs < last.endUs() - tol) {
            if (child.endUs() > last.endUs())
                chain.back() = c;
        } else {
            chain.push_back(c);
        }
    }
    return chain;
}

/**
 * Attribute the node's interval to span classes along the critical
 * chain: gaps not covered by any chain member are the node's own
 * work, chain members recurse.
 */
void
attributeCriticalPath(const SpanForest &forest, int index,
                      std::map<std::string, double> &self_us)
{
    const SpanNode &node = forest.nodes[static_cast<std::size_t>(index)];
    if (node.children.empty()) {
        self_us[node.cls] += node.durUs;
        return;
    }
    double t = node.startUs;
    for (int c : criticalChain(forest, node)) {
        const SpanNode &child = forest.nodes[static_cast<std::size_t>(c)];
        if (child.startUs > t)
            self_us[node.cls] += child.startUs - t;
        attributeCriticalPath(forest, c, self_us);
        t = std::max(t, child.endUs());
    }
    if (node.endUs() > t)
        self_us[node.cls] += node.endUs() - t;
}

void
recordViolation(TraceAnalysis &out, std::string msg)
{
    ++out.violationCount;
    if (static_cast<int>(out.violations.size()) < kMaxViolations)
        out.violations.push_back(std::move(msg));
}

void
writeStringMap(std::ostream &os, const std::map<std::string, double> &m)
{
    os << '{';
    bool first = true;
    for (const auto &[key, value] : m) {
        os << (first ? "" : ", ") << '"' << util::jsonEscape(key)
           << "\": ";
        util::writeJsonValue(os, value);
        first = false;
    }
    os << '}';
}

} // namespace

double
SpanNode::num(const std::string &key, double fallback) const
{
    const auto it = nums.find(key);
    return it == nums.end() ? fallback : it->second;
}

SpanForest
parseSpanTrace(std::istream &is)
{
    SpanForest forest;
    std::unordered_map<std::uint64_t, int> index_of;

    util::JsonLinesReader reader([&](util::JsonValue &v) {
        double summary = 0.0;
        if (v.get("span_summary", summary)) {
            forest.haveSummary = true;
            v.get("spans", forest.declaredSpans);
            v.get("dropped_spans", forest.declaredDropped);
            return util::LineVerdict::Record;
        }
        SpanNode node;
        if (!v.get("span", node.cls))
            return util::LineVerdict::Ignored; // e.g. a health line
        if (!v.get("id", node.id) || !v.get("parent", node.parent))
            return util::LineVerdict::Malformed;
        for (const auto &[key, value] : v.object) {
            if (key == "span" || key == "id" || key == "parent")
                continue;
            if (key == "start_us" && value.isNumber()) {
                node.startUs = value.number;
            } else if (key == "dur_us" && value.isNumber()) {
                node.durUs = value.number;
            } else if (value.isNumber()) {
                node.nums.emplace(key, value.number);
            } else if (value.type == util::JsonValue::Type::String) {
                node.strs.emplace(key, value.string);
            }
        }

        if (index_of.count(node.id)) {
            ++forest.duplicates;
        } else {
            index_of.emplace(node.id,
                             static_cast<int>(forest.nodes.size()));
            forest.nodes.push_back(std::move(node));
        }
        return util::LineVerdict::Record;
    });
    reader.read(is);
    forest.input = reader.stats();

    for (std::size_t i = 0; i < forest.nodes.size(); ++i) {
        SpanNode &node = forest.nodes[i];
        if (node.parent == 0) {
            forest.roots.push_back(static_cast<int>(i));
            continue;
        }
        const auto it = index_of.find(node.parent);
        if (it == index_of.end()) {
            forest.orphans.push_back(node.id);
            continue;
        }
        node.parentIndex = it->second;
        forest.nodes[static_cast<std::size_t>(it->second)]
            .children.push_back(static_cast<int>(i));
    }
    return forest;
}

TraceAnalysis
analyzeSpans(const SpanForest &forest, const SpanAnalysisOptions &options)
{
    TraceAnalysis out;
    out.spanCount = forest.nodes.size();
    out.rootCount = forest.roots.size();
    out.orphanCount = forest.orphans.size();
    out.duplicateCount = forest.duplicates;
    out.droppedSpans = forest.declaredDropped;
    out.summaryMatches = !forest.haveSummary
        || forest.declaredSpans == forest.nodes.size();

    // Structural invariants.
    for (std::size_t i = 0; i < forest.nodes.size(); ++i) {
        const SpanNode &node = forest.nodes[i];
        if (node.durUs < 0.0) {
            recordViolation(out, "span " + std::to_string(node.id) + " ("
                                     + node.cls + "): negative duration");
        }
        if (node.children.empty())
            continue;
        const double tol = toleranceOf(node);
        double child_sum = 0.0;
        bool overlapping = false;
        double prev_end = node.startUs;
        for (int c : childrenByStart(forest, node)) {
            const SpanNode &child =
                forest.nodes[static_cast<std::size_t>(c)];
            if (child.startUs < node.startUs - tol
                || child.endUs() > node.endUs() + tol) {
                recordViolation(out, "span " + std::to_string(child.id)
                                         + " (" + child.cls
                                         + ") escapes parent "
                                         + std::to_string(node.id) + " ("
                                         + node.cls + ")");
            }
            if (child.startUs < prev_end - tol)
                overlapping = true;
            prev_end = std::max(prev_end, child.endUs());
            child_sum += child.durUs;
        }
        // Sequential children must fit in the parent; parallel ones
        // (page ops fanned out under one host request) legitimately
        // sum past it.
        if (!overlapping && child_sum > node.durUs + tol) {
            recordViolation(out,
                            "children of span " + std::to_string(node.id)
                                + " (" + node.cls + ") sum to "
                                + util::jsonNumber(child_sum)
                                + " us > parent "
                                + util::jsonNumber(node.durUs) + " us");
        }
    }

    // Per-root-class latency totals and distributions. Totals use the
    // same exact accumulation as the metrics histograms, so for runs
    // whose roots carry the recorded latencies they agree to the last
    // bit — in any order.
    std::map<std::string, std::vector<double>> root_durs;
    std::map<std::string, util::ExactSum> root_sums;
    for (int r : forest.roots) {
        const SpanNode &root = forest.nodes[static_cast<std::size_t>(r)];
        root_sums[root.cls].add(root.durUs);
        root_durs[root.cls].push_back(root.durUs);
    }
    for (const auto &[cls, sum] : root_sums)
        out.rootTotalUs[cls] = sum.value();
    std::map<std::string, double> tail_threshold;
    for (auto &[cls, durs] : root_durs) {
        std::vector<double> sorted = durs;
        std::sort(sorted.begin(), sorted.end());
        auto &stats = out.rootStats[cls];
        stats["count"] = static_cast<double>(sorted.size());
        stats["p50_us"] = percentileOf(sorted, 0.50);
        stats["p99_us"] = percentileOf(sorted, 0.99);
        stats["p999_us"] = percentileOf(sorted, 0.999);
        stats["max_us"] = sorted.back();
        tail_threshold[cls] = stats["p99_us"];
    }

    // Critical-path attribution, whole population and the tail.
    for (int r : forest.roots) {
        const SpanNode &root = forest.nodes[static_cast<std::size_t>(r)];
        attributeCriticalPath(forest, r, out.criticalPathUs);
        if (root.durUs >= tail_threshold[root.cls]) {
            attributeCriticalPath(forest, r, out.tailCriticalPathUs);
        }
    }
    double best = -1.0;
    for (const auto &[cls, us] : out.tailCriticalPathUs) {
        if (us > best) {
            best = us;
            out.tailDominantClass = cls;
        }
    }

    // Retry storms: some read session under the root retried >= K
    // times. A session is any span carrying an "attempts" attribute
    // (SsdSim read_op, chip-level session roots) or explicit
    // "attempt" child spans; the root reports its worst session, so a
    // multi-page request does not pool one-attempt reads into a
    // phantom storm.
    for (int r : forest.roots) {
        const SpanNode &root = forest.nodes[static_cast<std::size_t>(r)];
        int retries = 0;
        const std::function<void(int)> scan = [&](int idx) {
            const SpanNode &node =
                forest.nodes[static_cast<std::size_t>(idx)];
            const int from_attr =
                static_cast<int>(node.num("attempts", 0.0)) - 1;
            int from_spans = 0;
            for (int c : node.children) {
                from_spans +=
                    forest.nodes[static_cast<std::size_t>(c)].cls
                    == "attempt";
            }
            retries = std::max({retries, from_attr, from_spans - 1});
            for (int c : node.children)
                scan(c);
        };
        scan(r);
        if (retries >= options.retryStormK)
            out.retryStorms.push_back(RetryStorm{root.id, retries});
    }
    return out;
}

void
writePerfettoJson(const SpanForest &forest, std::ostream &os)
{
    // Greedy interval partitioning: each root tree goes to the first
    // track free at its start time.
    std::vector<double> track_free;
    std::vector<int> track_of(forest.nodes.size(), 0);
    for (int r : forest.roots) {
        const SpanNode &root = forest.nodes[static_cast<std::size_t>(r)];
        int track = -1;
        for (std::size_t t = 0; t < track_free.size(); ++t) {
            if (track_free[t] <= root.startUs) {
                track = static_cast<int>(t);
                break;
            }
        }
        if (track < 0) {
            track = static_cast<int>(track_free.size());
            track_free.push_back(0.0);
        }
        track_free[static_cast<std::size_t>(track)] = root.endUs();
        track_of[static_cast<std::size_t>(r)] = track;
    }

    os << "{\"traceEvents\": [";
    bool first = true;
    // Emit each tree depth-first so events of one request stay
    // adjacent in the file.
    const std::function<void(int, const std::string &, int)> emit =
        [&](int index, const std::string &cat, int track) {
            const SpanNode &node =
                forest.nodes[static_cast<std::size_t>(index)];
            os << (first ? "" : ", ")
               << "{\"name\": \"" << util::jsonEscape(node.cls)
               << "\", \"cat\": \"" << util::jsonEscape(cat)
               << "\", \"ph\": \"X\", \"ts\": ";
            util::writeJsonValue(os, node.startUs);
            os << ", \"dur\": ";
            util::writeJsonValue(os, node.durUs);
            os << ", \"pid\": 0, \"tid\": " << track << ", \"args\": {";
            bool first_arg = true;
            for (const auto &[key, value] : node.strs) {
                os << (first_arg ? "" : ", ") << '"'
                   << util::jsonEscape(key) << "\": \""
                   << util::jsonEscape(value) << '"';
                first_arg = false;
            }
            for (const auto &[key, value] : node.nums) {
                os << (first_arg ? "" : ", ") << '"'
                   << util::jsonEscape(key) << "\": ";
                util::writeJsonValue(os, value);
                first_arg = false;
            }
            os << "}}";
            first = false;
            for (int c : node.children)
                emit(c, cat, track);
        };
    for (int r : forest.roots) {
        emit(r, forest.nodes[static_cast<std::size_t>(r)].cls,
             track_of[static_cast<std::size_t>(r)]);
    }
    os << "]}\n";
}

void
writeAnalysisJson(const TraceAnalysis &analysis, std::ostream &os)
{
    os << "{\"spans\": " << analysis.spanCount
       << ", \"roots\": " << analysis.rootCount
       << ", \"orphans\": " << analysis.orphanCount
       << ", \"duplicates\": " << analysis.duplicateCount
       << ", \"dropped_spans\": " << analysis.droppedSpans
       << ", \"summary_matches\": "
       << (analysis.summaryMatches ? "true" : "false")
       << ", \"violation_count\": " << analysis.violationCount
       << ", \"violations\": [";
    for (std::size_t i = 0; i < analysis.violations.size(); ++i) {
        os << (i ? ", " : "") << '"'
           << util::jsonEscape(analysis.violations[i]) << '"';
    }
    os << "], \"root_total_us\": ";
    writeStringMap(os, analysis.rootTotalUs);
    os << ", \"root_stats\": {";
    bool first = true;
    for (const auto &[cls, stats] : analysis.rootStats) {
        os << (first ? "" : ", ") << '"' << util::jsonEscape(cls)
           << "\": ";
        writeStringMap(os, stats);
        first = false;
    }
    os << "}, \"critical_path_us\": ";
    writeStringMap(os, analysis.criticalPathUs);
    os << ", \"tail_critical_path_us\": ";
    writeStringMap(os, analysis.tailCriticalPathUs);
    os << ", \"tail_dominant_class\": \""
       << util::jsonEscape(analysis.tailDominantClass)
       << "\", \"retry_storms\": [";
    for (std::size_t i = 0; i < analysis.retryStorms.size(); ++i) {
        os << (i ? ", " : "")
           << "{\"root_id\": " << analysis.retryStorms[i].rootId
           << ", \"retries\": " << analysis.retryStorms[i].retries << '}';
    }
    os << "]}\n";
}

} // namespace flash::trace
