/**
 * @file
 * Span-trace analyzer / exporter.
 *
 *   usage: trace_analyze TRACE.jsonl [--report OUT.json]
 *                        [--perfetto OUT.json] [--retry-k N]
 *                        [--fail-on-drops] [--quiet]
 *
 * Rebuilds the span trees of a bench's spans.jsonl, verifies them
 * (zero orphans, zero duplicate ids, interval nesting, child-sum
 * bounds, summary-line consistency), prints the per-request latency
 * breakdown — total and tail (>= p99) critical-path self-time per
 * span class — and flags retry storms (sessions with >= N retries,
 * default 5).
 *
 * Lines that are not JSON objects, and spans without a numeric id and
 * parent, are skipped and counted as malformed; objects of other
 * JSON-lines streams are counted as ignored (util::JsonLinesReader).
 *
 * --report writes the full analysis as one JSON object; --perfetto
 * writes a Chrome/Perfetto traceEvents file (open at ui.perfetto.dev)
 * and re-parses it as a self-check. Exit codes: 0 clean; 1 after the
 * full analysis when a line was malformed, an orphan, duplicate or
 * violation survives, the summary line disagrees, or spans were
 * dropped under --fail-on-drops; 2 on usage or I/O errors.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "trace/span_analysis.hh"
#include "util/args.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

using namespace flash;

namespace
{

void
printMap(const char *title, const std::map<std::string, double> &m)
{
    std::cout << title << '\n';
    double total = 0.0;
    for (const auto &[cls, us] : m)
        total += us;
    for (const auto &[cls, us] : m) {
        std::cout << "  " << cls << ": " << util::jsonNumber(us) << " us ("
                  << util::jsonNumber(total > 0.0 ? 100.0 * us / total
                                                  : 0.0)
                  << "%)\n";
    }
}

} // namespace

int
main(int argc, char **argv)
try {
    util::Args args(argc, argv);
    const std::string report_path = args.text("report", "OUT.json");
    const std::string perfetto_path = args.text("perfetto", "OUT.json");
    trace::SpanAnalysisOptions options;
    options.retryStormK = args.number<int>("retry-k", options.retryStormK, 1);
    const bool fail_on_drops = args.flag("fail-on-drops");
    const bool quiet = args.flag("quiet");
    const std::string trace_path = args.positional("TRACE.jsonl");
    args.check();

    std::ifstream in(trace_path);
    util::fatalIf(!in, "cannot open " + trace_path);
    const trace::SpanForest forest = trace::parseSpanTrace(in);
    const trace::TraceAnalysis analysis = trace::analyzeSpans(forest, options);

    const util::JsonLinesStats &input = forest.input;
    if (!quiet) {
        if (input.malformed > 0 || input.ignored > 0) {
            std::cout << "input: skipped " << input.malformed
                      << " malformed line(s) (" << input.truncatedTail
                      << " truncated tail), ignored " << input.ignored
                      << " foreign line(s)\n";
        }
        std::cout << analysis.spanCount << " spans, "
                  << analysis.rootCount << " roots, "
                  << analysis.orphanCount << " orphans, "
                  << analysis.duplicateCount << " duplicates, "
                  << analysis.droppedSpans << " dropped\n";
        for (const auto &[cls, stats] : analysis.rootStats) {
            std::cout << cls << ": count "
                      << static_cast<std::uint64_t>(stats.at("count"))
                      << ", total "
                      << util::jsonNumber(analysis.rootTotalUs.at(cls))
                      << " us, p50 "
                      << util::jsonNumber(stats.at("p50_us"))
                      << " us, p99 "
                      << util::jsonNumber(stats.at("p99_us"))
                      << " us, p999 "
                      << util::jsonNumber(stats.at("p999_us"))
                      << " us\n";
        }
        printMap("critical path (all requests):", analysis.criticalPathUs);
        printMap("critical path (tail, >= p99):",
                 analysis.tailCriticalPathUs);
        if (!analysis.tailDominantClass.empty()) {
            std::cout << "tail dominated by: " << analysis.tailDominantClass
                      << '\n';
        }
        std::cout << analysis.retryStorms.size()
                  << " retry storm(s) (>= " << options.retryStormK
                  << " retries)\n";
        constexpr std::size_t kMaxStormsPrinted = 10;
        for (std::size_t i = 0;
             i < analysis.retryStorms.size() && i < kMaxStormsPrinted;
             ++i) {
            std::cout << "  root id " << analysis.retryStorms[i].rootId
                      << ": " << analysis.retryStorms[i].retries
                      << " retries\n";
        }
        if (analysis.retryStorms.size() > kMaxStormsPrinted) {
            std::cout << "  ... and "
                      << analysis.retryStorms.size() - kMaxStormsPrinted
                      << " more (see --report)\n";
        }
        for (const auto &v : analysis.violations)
            std::cout << "violation: " << v << '\n';
        if (analysis.violationCount > analysis.violations.size()) {
            std::cout << "... and "
                      << analysis.violationCount - analysis.violations.size()
                      << " more violation(s)\n";
        }
    }

    if (!report_path.empty()) {
        std::ofstream out(report_path);
        util::fatalIf(!out, "cannot write " + report_path);
        trace::writeAnalysisJson(analysis, out);
    }
    if (!perfetto_path.empty()) {
        std::ostringstream buf;
        trace::writePerfettoJson(forest, buf);
        // Self-check: the export must be one valid JSON document
        // with a traceEvents array covering every span (orphan
        // subtrees are unreachable and excused).
        const util::JsonValue doc = util::parseJson(buf.str());
        const util::JsonValue *events = doc.find("traceEvents");
        util::fatalIf(!events || events->type != util::JsonValue::Type::Array
                          || (analysis.orphanCount == 0
                              && events->array.size() != analysis.spanCount),
                      "perfetto export failed self-check");
        std::ofstream out(perfetto_path);
        util::fatalIf(!out, "cannot write " + perfetto_path);
        out << buf.str();
    }

    const bool bad = input.malformed > 0 || analysis.orphanCount > 0
        || analysis.duplicateCount > 0 || analysis.violationCount > 0
        || !analysis.summaryMatches
        || (fail_on_drops && analysis.droppedSpans > 0);
    if (bad && !quiet)
        std::cout << "FAIL\n";
    return bad ? 1 : 0;
} catch (const std::exception &e) {
    std::cerr << "trace_analyze: " << e.what() << '\n';
    return 2;
}
