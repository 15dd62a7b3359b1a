/**
 * @file
 * Shared setup for the figure/table regeneration harnesses.
 *
 * Every binary reproduces one figure or table of the paper on the
 * simulated chips. Geometry is the paper's (18592-byte pages, 64
 * layers); wordlines are subsampled where the paper plots all of
 * them, purely for runtime.
 */

#ifndef SENTINELFLASH_BENCH_BENCH_SUPPORT_HH
#define SENTINELFLASH_BENCH_BENCH_SUPPORT_HH

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <list>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "core/characterization.hh"
#include "core/evaluator.hh"
#include "nandsim/chip.hh"
#include "nandsim/oracle.hh"
#include "ssd/config.hh"
#include "util/logging.hh"
#include "util/span_trace.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace flash::bench
{

/** Seed shared by all harnesses (chips of the same batch). */
constexpr std::uint64_t kChipSeed = 0x5eed2020;

/** One-year retention, the paper's standard bake. */
constexpr double kOneYearHours = 8760.0;

/** Evaluation block (block 0 is the characterization block). */
constexpr int kEvalBlock = 1;

/** Paper-scale TLC chip. */
inline nand::Chip
makeTlcChip(int blocks = 2)
{
    auto geom = nand::paperTlcGeometry();
    geom.blocks = blocks;
    return nand::Chip(geom, nand::tlcVoltageParams(), kChipSeed);
}

/** Paper-scale QLC chip. */
inline nand::Chip
makeQlcChip(int blocks = 2)
{
    auto geom = nand::paperQlcGeometry();
    geom.blocks = blocks;
    return nand::Chip(geom, nand::qlcVoltageParams(), kChipSeed);
}

/**
 * Reject a malformed command line: usage message on stderr, exit
 * status 2 (the conventional CLI usage-error code, distinct from a
 * harness failure).
 */
[[noreturn]] inline void
usageError(const std::string &msg)
{
    std::cerr << "error: " << msg << '\n'
              << "usage: flag values are `--name VALUE` or `--name=VALUE`;"
                 " numeric flags\nreject non-numeric, trailing-garbage and"
                 " out-of-range values.\n";
    std::exit(2);
}

/**
 * Strict integer parse of one flag value: the whole string must be a
 * base-10 integer in [@p lo, @p hi]. Anything else exits with status
 * 2 (std::atoi would silently turn `--threads abc` into 0).
 */
inline long
parseLong(const std::string &text, const std::string &flag, long lo,
          long hi)
{
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0')
        usageError(flag + ": expected an integer, got \"" + text + '"');
    if (errno == ERANGE || v < lo || v > hi) {
        usageError(flag + ": value " + text + " out of range ["
                   + std::to_string(lo) + ", " + std::to_string(hi) + ']');
    }
    return v;
}

/**
 * Strict floating-point parse of one flag value: the whole string
 * must be a finite number in [@p lo, @p hi]; exits with status 2
 * otherwise.
 */
inline double
parseDouble(const std::string &text, const std::string &flag, double lo,
            double hi)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0')
        usageError(flag + ": expected a number, got \"" + text + '"');
    if (errno == ERANGE || !(v >= lo) || !(v <= hi)) {
        usageError(flag + ": value " + text + " out of range ["
                   + std::to_string(lo) + ", " + std::to_string(hi) + ']');
    }
    return v;
}

/**
 * Locate `--name VALUE` (or `--name=VALUE`); false when absent, the
 * last occurrence wins, a trailing `--name` with no value is a usage
 * error.
 */
inline bool
findArg(int argc, char **argv, const std::string &name, std::string &value)
{
    const std::string flag = "--" + name;
    bool found = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == flag) {
            if (i + 1 >= argc)
                usageError(flag + ": missing value");
            value = argv[++i];
            found = true;
        } else if (a.rfind(flag + "=", 0) == 0) {
            value = a.substr(flag.size() + 1);
            found = true;
        }
    }
    return found;
}

/**
 * Declare the flags a bench accepts and reject everything else with
 * exit status 2: an undeclared `--name`, a bare flag given a value,
 * and a stray positional argument. @p values take a value
 * (`--name V` or `--name=V`); @p bare take none. Call it first in
 * main, so a misspelled flag (`--device 8`) cannot silently run the
 * default.
 */
inline void
acceptFlags(int argc, char **argv, const std::vector<std::string> &values,
            const std::vector<std::string> &bare = {})
{
    const auto declared = [](const std::vector<std::string> &names,
                             const std::string &name) {
        return std::find(names.begin(), names.end(), name) != names.end();
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--", 0) != 0)
            usageError("unexpected argument \"" + a + '"');
        const std::size_t eq = a.find('=');
        const std::string name =
            a.substr(2, eq == std::string::npos ? eq : eq - 2);
        if (declared(values, name)) {
            if (eq == std::string::npos)
                ++i; // the value; findArg reports a missing one
        } else if (declared(bare, name)) {
            if (eq != std::string::npos)
                usageError("--" + name + " takes no value");
        } else {
            std::string known;
            for (const std::string &v : values)
                known += " --" + v + " V";
            for (const std::string &b : bare)
                known += " --" + b;
            usageError("unknown flag --" + name + "; accepted:" + known);
        }
    }
}

/** Validated `--name N` integer option; @p fallback when absent. */
inline long
longArg(int argc, char **argv, const std::string &name, long fallback,
        long lo, long hi)
{
    std::string v;
    if (!findArg(argc, argv, name, v))
        return fallback;
    return parseLong(v, "--" + name, lo, hi);
}

/** Validated `--name X` floating-point option; @p fallback when absent. */
inline double
doubleArg(int argc, char **argv, const std::string &name, double fallback,
          double lo, double hi)
{
    std::string v;
    if (!findArg(argc, argv, name, v))
        return fallback;
    return parseDouble(v, "--" + name, lo, hi);
}

/**
 * Parse `--threads N` (or `--threads=N`) from the command line.
 * Defaults to 1; 0 selects the hardware concurrency. Results are
 * bit-identical at every thread count.
 */
inline int
threadsArg(int argc, char **argv)
{
    const int threads =
        static_cast<int>(longArg(argc, argv, "threads", 1, 0, 4096));
    return threads == 0 ? util::hardwareThreads() : threads;
}

/**
 * Parse a `--name VALUE` (or `--name=VALUE`) string option; empty
 * when absent.
 */
inline std::string
stringArg(int argc, char **argv, const std::string &name)
{
    std::string value;
    return findArg(argc, argv, name, value) ? value : std::string();
}

/** Presence of a bare `--name` flag. */
inline bool
flagArg(int argc, char **argv, const std::string &name)
{
    const std::string flag = "--" + name;
    for (int i = 1; i < argc; ++i) {
        if (flag == argv[i])
            return true;
    }
    return false;
}

/**
 * `--scrub-interval US`: simulated microseconds between background
 * scrub scans (0 when absent: scrubbing off).
 */
inline double
scrubIntervalArg(int argc, char **argv)
{
    return doubleArg(argc, argv, "scrub-interval", 0.0, 1e-6, 1e15);
}

/**
 * `--scrub-budget N`: probe reads per scrub scan; @p fallback when
 * absent.
 */
inline int
scrubBudgetArg(int argc, char **argv, int fallback)
{
    return static_cast<int>(longArg(argc, argv, "scrub-budget", fallback,
                                    1, 1000000000L));
}

/**
 * `--refresh-rber R`: probed sentinel-RBER threshold that queues a
 * block for refresh (0 when absent: refresh off).
 */
inline double
refreshRberArg(int argc, char **argv)
{
    return doubleArg(argc, argv, "refresh-rber", 0.0, 1e-12, 1.0);
}

/**
 * Presence of the bare `--voltage-model` flag: attach the online
 * predictive voltage model (core::VoltagePredictor) to the measured
 * sentinel policy / fleet devices.
 */
inline bool
voltageModelArg(int argc, char **argv)
{
    return flagArg(argc, argv, "voltage-model");
}

/**
 * `--model-confidence C`: confidence a model prediction needs to gate
 * the assist-free read, in [0, 1]; @p fallback when absent.
 */
inline double
modelConfidenceArg(int argc, char **argv, double fallback = 0.5)
{
    return doubleArg(argc, argv, "model-confidence", fallback, 0.0, 1.0);
}

/**
 * `--ftl NAME`: which FTL of the zoo maps the simulated device —
 * "page" (pure page mapping) or "fast" (FAST hybrid log-block).
 * Defaults to page; anything else is a usage error (exit 2).
 */
inline ssd::FtlKind
ftlArg(int argc, char **argv)
{
    std::string v;
    if (!findArg(argc, argv, "ftl", v))
        return ssd::FtlKind::Page;
    if (v == "page")
        return ssd::FtlKind::Page;
    if (v == "fast")
        return ssd::FtlKind::Fast;
    usageError("--ftl: expected \"page\" or \"fast\", got \"" + v + '"');
}

/**
 * `--gc-policy NAME`: GC victim selection — "greedy" (min valid
 * pages) or "costbenefit" (age x utilization). Defaults to greedy;
 * anything else is a usage error (exit 2).
 */
inline ssd::GcVictimPolicy
gcPolicyArg(int argc, char **argv)
{
    std::string v;
    if (!findArg(argc, argv, "gc-policy", v))
        return ssd::GcVictimPolicy::Greedy;
    if (v == "greedy")
        return ssd::GcVictimPolicy::Greedy;
    if (v == "costbenefit")
        return ssd::GcVictimPolicy::CostBenefit;
    usageError("--gc-policy: expected \"greedy\" or \"costbenefit\","
               " got \""
               + v + '"');
}

/**
 * `--requests N`: trace records per synthesized workload; @p fallback
 * when absent. CI shrinks this so span-gated replays stay cheap.
 */
inline int
requestsArg(int argc, char **argv, int fallback)
{
    return static_cast<int>(longArg(argc, argv, "requests", fallback, 1,
                                    1000000000L));
}

/**
 * The artifact directory of one bench run. `--out DIR` names it and
 * every artifact lands there under a fixed name: metrics.json,
 * health.jsonl, fleet.jsonl, spans.jsonl, kernels.json.
 * `--spans N` records up to N causal spans into DIR/spans.jsonl; it
 * needs `--out`, and N must be positive (exit 2 otherwise).
 *
 * The constructor creates DIR and its missing parents and, with
 * `--spans`, opens spans.jsonl, so a bad DIR fails before the run
 * (fatal). Files opened with open() stay open until the OutDir is
 * destroyed, which writes the spans, closes every file and notes each
 * one on stderr; a file that fails to write exits with status 1.
 * Declare it before anything that writes into its streams or spans.
 */
class OutDir
{
  public:
    OutDir(int argc, char **argv)
    {
        std::string spans;
        const bool has_spans = findArg(argc, argv, "spans", spans);
        const long capacity =
            has_spans ? parseLong(spans, "--spans", 1, 1000000000L) : 0;
        if (!findArg(argc, argv, "out", dir_)) {
            if (has_spans)
                usageError("--spans needs --out DIR");
            return;
        }
        if (dir_.empty())
            usageError("--out: expected a directory");
        std::error_code ec;
        std::filesystem::create_directories(dir_, ec);
        util::fatalIf(ec || !std::filesystem::is_directory(dir_),
                      "--out: cannot create directory " + dir_);
        if (has_spans) {
            spans_ = std::make_unique<util::SpanTrace>(
                static_cast<std::size_t>(capacity));
            open("spans.jsonl"); // files_.front()
        }
    }

    OutDir(const OutDir &) = delete;
    OutDir &operator=(const OutDir &) = delete;

    ~OutDir()
    {
        if (spans_) {
            File &f = files_.front();
            spans_->writeJsonLines(f.os);
            f.note = " (" + std::to_string(spans_->spans()) + " spans, "
                + std::to_string(spans_->droppedSpans()) + " dropped)";
        }
        bool failed = false;
        for (File &f : files_) {
            f.os.close();
            if (f.os) {
                util::inform("wrote " + f.path + f.note);
            } else {
                std::cerr << "error: --out: cannot write " << f.path << '\n';
                failed = true;
            }
        }
        if (failed)
            std::exit(1); // a truncated artifact must not exit 0
    }

    /** Whether `--out` was given. */
    bool enabled() const { return !dir_.empty(); }

    /** DIR/@p name open for writing; nullptr without `--out`. */
    std::ostream *
    open(const std::string &name)
    {
        if (!enabled())
            return nullptr;
        File &f = files_.emplace_back();
        f.path = dir_ + "/" + name;
        f.os.open(f.path);
        util::fatalIf(!f.os, "--out: cannot open " + f.path);
        return &f.os;
    }

    /** The `--spans N` sink; nullptr when spans are not recorded. */
    util::SpanTrace *spans() const { return spans_.get(); }

  private:
    struct File
    {
        std::string path;
        std::ofstream os;
        std::string note;
    };

    std::string dir_;
    std::unique_ptr<util::SpanTrace> spans_;
    std::list<File> files_; ///< stable addresses: open() hands out streams
};

/** Factory characterization with a bench-friendly sample budget. */
inline core::Characterization
characterize(nand::Chip &chip, int wl_stride, int threads = 1)
{
    core::CharOptions opt;
    opt.wordlineStride = wl_stride;
    opt.threads = threads;
    const core::FactoryCharacterizer characterizer(opt);
    return characterizer.run(chip);
}

/** Age a block to (pe, one year at room temperature). */
inline void
ageBlock(nand::Chip &chip, int block, std::uint32_t pe,
         double hours = kOneYearHours, double temp_c = 25.0)
{
    chip.setPeCycles(block, pe);
    chip.refresh(block);
    chip.age(block, hours, temp_c);
}

/** Print the harness header. */
inline void
header(const std::string &figure, const std::string &what,
       const std::string &paper_result)
{
    std::cout << "================================================\n"
              << figure << ": " << what << '\n'
              << "paper reports: " << paper_result << '\n'
              << "================================================\n";
}

/** Print the shape-comparison footer. */
inline void
footer(const std::string &shape_note)
{
    std::cout << "\nshape check: " << shape_note << '\n';
}

} // namespace flash::bench

#endif // SENTINELFLASH_BENCH_BENCH_SUPPORT_HH
