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

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <list>
#include <memory>
#include <string>
#include <system_error>

#include "core/characterization.hh"
#include "core/evaluator.hh"
#include "nandsim/chip.hh"
#include "nandsim/oracle.hh"
#include "ssd/config.hh"
#include "util/args.hh"
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

// The flags several benches share, each with its one default and range.

/** `--threads N`, 0 = hardware concurrency; output is identical at any N. */
inline int
threadsArg(util::Args &args)
{
    const int threads = args.number<int>("threads", 1, 0, 4096);
    return threads ? threads : util::hardwareThreads();
}

/** `--scrub-interval X`: simulated us between scrub scans; 0 (off). */
inline double
scrubIntervalArg(util::Args &args)
{
    return args.number<double>("scrub-interval", 0.0, 1e-6, 1e15);
}

/** `--scrub-budget N`: probe reads per scrub scan. */
inline int
scrubBudgetArg(util::Args &args, int fallback)
{
    return args.number<int>("scrub-budget", fallback, 1, 1000000000);
}

/** `--refresh-rber X`: probed RBER that queues a refresh; 0 (off). */
inline double
refreshRberArg(util::Args &args)
{
    return args.number<double>("refresh-rber", 0.0, 1e-12, 1.0);
}

/** `--model-confidence X`: confidence that gates a model prediction. */
inline double
modelConfidenceArg(util::Args &args, double fallback = 0.5)
{
    return args.number<double>("model-confidence", fallback, 0.0, 1.0);
}

/** `--ftl page|fast`: page mapping or the FAST hybrid FTL. */
inline ssd::FtlKind
ftlArg(util::Args &args)
{
    return args.choice("ftl", {"page", "fast"}, "page") == "fast"
        ? ssd::FtlKind::Fast
        : ssd::FtlKind::Page;
}

/** `--gc-policy greedy|costbenefit`: GC victim selection. */
inline ssd::GcVictimPolicy
gcPolicyArg(util::Args &args)
{
    return args.choice("gc-policy", {"greedy", "costbenefit"}, "greedy")
            == "costbenefit"
        ? ssd::GcVictimPolicy::CostBenefit
        : ssd::GcVictimPolicy::Greedy;
}

/** `--requests N`: trace records per synthesized workload. */
inline int
requestsArg(util::Args &args, int fallback)
{
    return args.number<int>("requests", fallback, 1, 1000000000);
}

/**
 * The artifact directory of one bench run. `--out DIR` names it and
 * every artifact lands there under a fixed name: metrics.json,
 * health.jsonl, fleet.jsonl, spans.jsonl, kernels.json.
 * `--spans N` records up to N causal spans into DIR/spans.jsonl; it
 * needs `--out`, and N must be positive (exit 2 otherwise).
 *
 * The constructor checks the command line, then creates DIR and its
 * missing parents and, with `--spans`, opens spans.jsonl, so a bad
 * command line creates nothing and a bad DIR fails before the run
 * (fatal). Files opened with open() stay open until the OutDir is
 * destroyed, which writes the spans, closes every file and notes each
 * one on stderr; a file that fails to write exits with status 1.
 * Declare it before anything that writes into its streams or spans.
 */
class OutDir
{
  public:
    /**
     * Declares `--out DIR` and, when @p spans, `--spans N`; then
     * checks the whole command line (util::Args::check). Construct it
     * after every other flag of the bench.
     */
    explicit OutDir(util::Args &args, bool spans = false)
        : dir_(args.text("out", "DIR"))
    {
        const int capacity =
            spans ? args.number<int>("spans", 0, 1, 1000000000) : 0;
        if (capacity > 0 && dir_.empty())
            args.reject("--spans needs --out DIR");
        args.check();
        if (dir_.empty())
            return;
        std::error_code ec;
        std::filesystem::create_directories(dir_, ec);
        util::fatalIf(ec || !std::filesystem::is_directory(dir_),
                      "--out: cannot create directory " + dir_);
        if (capacity > 0) {
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
