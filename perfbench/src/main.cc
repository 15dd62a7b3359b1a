/**
 * @file
 * perfbench: the repository's benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Builds the workload's inputs from the seed (repeated set-up; the
 * median is setup_s), then runs timed passes for about S seconds and
 * reports the median pass. Every pass is checked for correctness and
 * for simulated output identical to the first pass. With --trace 1 the
 * run spends half its time on untraced passes and half on traced ones,
 * reports per-layer self times from the traced passes and writes the
 * spans as JSON lines. The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics.hh"
#include "tracer.hh"
#include "util/metrics.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    bool quick = false;
    bool listMetrics = false;
    std::string inject;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--quick] "
                 "[--inject check|rollup]\n"
              << "       perfbench --list-metrics\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text,
              std::uint64_t hi)
{
    if (text.empty()
        || text.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + ": expected a non-negative integer, got \"" + text + '"');
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE || v > hi)
        usage(flag + ": value " + text + " out of range");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--quick" || flag == "--list-metrics") {
            (flag == "--quick" ? a.quick : a.listMetrics) = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + ": missing value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = parseUnsigned(flag, value, UINT64_MAX);
        } else if (flag == "--seconds") {
            a.seconds = static_cast<int>(parseUnsigned(flag, value, 3600));
            if (a.seconds < 1)
                usage("--seconds: must be at least 1");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace: expected 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--inject") {
            if (value != "check" && value != "rollup")
                usage("--inject: expected check or rollup");
            a.inject = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload && !a.listMetrics)
        usage("--workload is required");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

/** FNV-1a, 64 bit: the digest of a pass's simulated output. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

/** Peak resident set of this process so far, MiB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Metric of a span name: "ssd.sim.run" -> "ssd.sim.run_s",
 *  "core.evaluate.vendor" -> "core.evaluate_s.vendor". */
std::string
layerMetric(const std::string &span)
{
    const std::string evaluate = "core.evaluate.";
    if (span.rfind(evaluate, 0) == 0)
        return "core.evaluate_s." + span.substr(evaluate.size());
    return span + "_s";
}

/** The self-time table: median seconds per unit and share of their sum. */
void
printSelfTimes(const Tracer &tracer, const std::string &kind)
{
    const auto self = tracer.medianSelfSeconds(kind);
    std::vector<std::pair<std::string, double>> rows(self.begin(),
                                                     self.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    double total = 0.0;
    for (const auto &row : rows)
        total += row.second;
    std::cout << "self time per " << kind << " (median of "
              << tracer.units(kind) << " units; sum " << total << " s):\n";
    for (const auto &[name, secs] : rows) {
        std::cout << "  " << std::left << std::setw(34) << name << std::right
                  << std::setw(12) << std::fixed << std::setprecision(6)
                  << secs << " s  " << std::setw(6) << std::setprecision(1)
                  << (total > 0 ? 100.0 * secs / total : 0.0) << " %\n"
                  << std::defaultfloat;
    }
}

int
run(const Args &args)
{
    RunOptions options;
    options.seed = args.seed;
    options.quick = args.quick;
    options.inject = args.inject;
    std::unique_ptr<Workload> workload =
        makeWorkload(args.workload, options);
    if (!workload)
        usage("unknown workload \"" + args.workload + '"');

    std::cout << "perfbench: workload " << args.workload << ", seed "
              << args.seed << ", " << args.seconds << " s, trace "
              << args.trace << (args.quick ? ", quick" : "") << '\n';

    Tracer traced(args.trace ? Tracer::Mode::Full : Tracer::Mode::Off);
    Tracer steps(Tracer::Mode::Steps);
    std::vector<std::string> failures;

    // Set-up, repeated so its median is steady; the last one is used.
    std::vector<double> setup;
    const int setup_reps = args.quick ? 1 : 3;
    for (int k = 0; k < setup_reps; ++k) {
        traced.beginUnit("setup");
        const auto t0 = std::chrono::steady_clock::now();
        workload->setup(traced);
        setup.push_back(since(t0));
        traced.endUnit();
    }
    for (std::string &f : workload->account())
        failures.push_back(std::move(f));

    // Passes: untraced ones record only their coarse steps; in a traced
    // run, half the time goes to passes that record every layer call.
    std::string first_digest;
    std::string last_digest;
    int pass_index = 0;
    double pass_ops = 0.0;
    double attempted = 0.0;
    const auto run_passes = [&](Tracer &tracer, double budget) {
        const auto t0 = std::chrono::steady_clock::now();
        double checks = 0.0;
        do {
            tracer.beginUnit("pass");
            const auto tp = std::chrono::steady_clock::now();
            PassResult r = workload->pass(tracer);
            tracer.endUnit();
            std::cout << "pass " << pass_index
                      << (tracer.full() ? " (traced)" : "") << ": "
                      << since(tp) << " s\n";
            pass_ops = r.ops;
            attempted += r.ops;
            checks += r.checkSeconds;

            last_digest = hex(fnv1a(r.simulated));
            if (first_digest.empty())
                first_digest = last_digest;
            else if (last_digest != first_digest)
                r.failures.push_back("pass " + std::to_string(pass_index)
                                     + " simulated output differs from "
                                       "pass 0");
            for (std::string &f : r.failures)
                failures.push_back(std::move(f));
            ++pass_index;
        } while (since(t0) - checks < budget);
    };
    const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
    run_passes(steps, budget);
    if (args.trace)
        run_passes(traced, budget);

    // Metrics. Other tenants of the host slow stretches of a run by tens
    // of percent; each step's fastest repetition tracks the program's
    // own cost, so a pass's wall time is the sum of those.
    Values v;
    workload->report(v);
    v["wall_s"] = steps.fastestStepsSeconds("pass");
    v["setup_s"] = median(setup);
    v["sim_ops_per_s"] = pass_ops / v["wall_s"];
    v["peak_rss_mb"] = peakRssMb();
    if (args.trace) {
        for (const auto &kind : {"setup", "pass"}) {
            for (const auto &[name, secs] : traced.medianSelfSeconds(kind)) {
                if (name != "bench")
                    v[layerMetric(name)] = secs;
            }
        }
        v["tracing.overhead_s"] =
            traced.fastestStepsSeconds("pass") - v["wall_s"];
        v["nandsim.ns_per_sense"] = v["nandsim.sense_ops"] > 0
            ? 1e9
                * (v["core.evaluate_s.vendor"] + v["core.evaluate_s.sentinel"]
                   + v["core.evaluate_s.sentinel_cache"])
                / v["nandsim.sense_ops"]
            : 0.0;
        const double page_ops =
            v["ssd.sim.page_reads"] + v["ssd.sim.page_writes"];
        v["ssd.sim.ns_per_page_op"] = page_ops > 0
            ? 1e9 * (v["ssd.sim.run_s"] + v["ssd.frontend.run_s"]) / page_ops
            : 0.0;
    }

    // Human-readable report: every metric this run measured, with unit.
    const MetricKind shown =
        args.trace ? MetricKind::PerLayer : MetricKind::EndToEnd;
    std::cout << "\nmetrics (" << steps.units("pass") << " untraced passes"
              << (args.trace ? ", " + std::to_string(traced.units("pass"))
                          + " traced passes"
                             : std::string())
              << ", " << setup.size() << " set-ups):\n";
    for (const MetricDef &d : metricCatalogue()) {
        const bool timing_layer =
            d.kind == MetricKind::PerLayer && !args.trace
            && (std::string(d.unit) == "s" || std::string(d.unit) == "ns");
        if (timing_layer)
            continue;
        std::cout << "  " << (d.kind == shown ? "* " : "  ") << std::left
                  << std::setw(34) << d.name << std::right << std::setw(16)
                  << std::setprecision(6) << v[d.name] << ' ' << d.unit
                  << '\n';
    }
    if (args.trace) {
        std::cout << '\n';
        printSelfTimes(traced, "setup");
        printSelfTimes(traced, "pass");

        std::filesystem::create_directories(".bench_out");
        const std::string path = ".bench_out/spans-" + args.workload
            + "-seed" + std::to_string(args.seed) + ".jsonl";
        std::ofstream spans(path);
        if (!spans)
            throw std::runtime_error("cannot write spans to " + path);
        traced.writeJsonLines(spans);
        std::cout << "spans: " << path << '\n';
    }
    std::cout << "digest " << args.workload << " seed " << args.seed << ": "
              << last_digest << '\n';
    for (const std::string &f : failures)
        std::cerr << "perfbench: check failed: " << f << '\n';
    std::cout << "checks: "
              << (failures.empty() ? "all passed"
                                   : std::to_string(failures.size())
                                       + " failed")
              << '\n';

    // The result line: the metrics of this run's kind, nothing else.
    // A run that fails any check counts all its operations as failed.
    const double failed = failures.empty() ? 0.0 : attempted;
    std::ostringstream out;
    out << "{\"correct\": " << (failures.empty() ? "true" : "false")
        << ", \"attempted\": " << static_cast<std::uint64_t>(attempted)
        << ", \"failed\": " << static_cast<std::uint64_t>(failed)
        << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : metricCatalogue()) {
        if (d.kind != shown)
            continue;
        out << (first ? "" : ", ") << '"' << d.name << "\": {\"value\": "
            << flash::util::jsonNumber(v[d.name]) << ", \"unit\": \""
            << d.unit << "\"}";
        first = false;
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return 0;
}

/** The metric catalogue, one JSON object per line. */
void
listMetrics()
{
    for (const MetricDef &d : metricCatalogue()) {
        std::cout << "{\"name\": \"" << d.name << "\", \"unit\": \"" << d.unit
                  << "\", \"better\": \"" << d.better << "\", \"kind\": \""
                  << (d.kind == MetricKind::EndToEnd ? "end_to_end"
                                                     : "per_layer")
                  << "\"}\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.listMetrics) {
        listMetrics();
        return 0;
    }
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
