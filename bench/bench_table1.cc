/**
 * @file
 * Table I: mean and standard deviation of the absolute difference
 * between the predicted and the real optimal sentinel-voltage offset,
 * as the sentinel ratio sweeps 0.02% .. 0.6%, for TLC and QLC.
 */

#include "bench_support.hh"
#include "core/error_difference.hh"
#include "core/inference.hh"
#include "core/policy_metrics.hh"
#include "core/read_policy.hh"
#include "ecc/ecc_model.hh"
#include "nandsim/read_seq.hh"
#include "nandsim/snapshot.hh"
#include "util/rng.hh"
#include "util/stats.hh"

using namespace flash;

namespace
{

/**
 * metrics.json: per-policy read-path metrics on the TLC chip at
 * the production sentinel ratio. The export reuses the library path
 * the regression tests pin down (collectPolicyMetrics), so p50/p99
 * and every counter reproduce bit-identically at any --threads N.
 */
void
exportMetrics(nand::Chip &chip, const core::Characterization &tables,
              std::ostream &os, int threads)
{
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    chip.programBlock(bench::kEvalBlock, bench::kChipSeed ^ 0x7AB1E,
                      overlay);
    bench::ageBlock(chip, bench::kEvalBlock, 5000);

    const ecc::EccModel ecc_model(ecc::EccConfig{16384, 145});
    const core::VendorRetryPolicy vendor(chip.model());
    core::SentinelPolicy sentinel(tables, chip.model().defaultVoltages());

    const auto runs = core::collectPolicyMetrics(
        chip, bench::kEvalBlock, {&vendor, &sentinel}, ecc_model, overlay,
        {}, -1, 1, threads);
    core::writePolicyMetricsJson(os, runs);
}

void
runChip(nand::Chip &chip, const char *name, std::uint32_t pe,
        int char_stride, int threads)
{
    // Factory tables are fitted once at the production ratio (0.2%).
    const auto tables = bench::characterize(chip, char_stride, threads);
    const auto defaults = chip.model().defaultVoltages();
    const int k_s = tables.sentinelBoundary;
    const int v_s = defaults[static_cast<std::size_t>(k_s)];
    const core::InferenceEngine engine(tables, defaults);
    const nand::OracleSearch oracle;

    util::TextTable table;
    table.header({"ratio", "sentinels", "mean |pred-real|", "stddev"});

    std::vector<int> wls;
    for (int wl = 0; wl < chip.geometry().wordlinesPerBlock(); wl += 8)
        wls.push_back(wl);

    std::size_t ri = 0;
    for (double ratio : {0.0002, 0.001, 0.002, 0.004, 0.006}) {
        core::SentinelConfig cfg;
        cfg.ratio = ratio;
        const auto overlay = core::makeOverlay(chip.geometry(), cfg);
        chip.programBlock(bench::kEvalBlock,
                          bench::kChipSeed ^ static_cast<std::uint64_t>(
                              ratio * 1e6),
                          overlay);
        bench::ageBlock(chip, bench::kEvalBlock, pe);

        // Read-only from here on; per-wordline noise derives from the
        // ratio index and the wordline, so the sweep parallelizes with
        // bit-identical statistics (reduced sequentially below).
        const nand::ReadClock clock(util::hashCombine(0x7AB1E, ri++));
        std::vector<int> abs_err(wls.size());
        util::parallelFor(
            threads, static_cast<int>(wls.size()), [&](int i) {
                const int wl = wls[static_cast<std::size_t>(i)];
                nand::ReadSeq seq =
                    clock.session(bench::kEvalBlock, wl);
                const auto sent = core::sentinelSnapshot(
                    chip, bench::kEvalBlock, wl, overlay, seq.next());
                const double d =
                    core::countSentinelErrors(sent, k_s, v_s).dRate();
                const int predicted = engine.infer(d).sentinelOffset;

                const auto data = nand::WordlineSnapshot::dataRegion(
                    chip, bench::kEvalBlock, wl, seq.next());
                const int real =
                    oracle.optimalBoundary(data, k_s, v_s).offset;
                abs_err[static_cast<std::size_t>(i)] =
                    std::abs(predicted - real);
            });

        util::RunningStats err;
        for (int e : abs_err)
            err.add(e);
        table.row({util::fmtPct(ratio, 2), util::fmtInt(overlay.count),
                   util::fmt(err.mean(), 2), util::fmt(err.stddev(), 2)});
    }

    util::banner(std::cout, name);
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    util::Args args(argc, argv);
    const int threads = bench::threadsArg(args);
    bench::OutDir out(args);
    bench::header("Table I",
                  "|predicted - real| optimal sentinel offset vs "
                  "sentinel ratio",
                  "TLC: 2.35 -> 1.44 and QLC: 3.15 -> 1.27 (mean DAC) as "
                  "the ratio grows 0.02% -> 0.6%");

    auto tlc = bench::makeTlcChip();
    runChip(tlc, "TLC (P/E 5000 + 1 y)", 5000, 16, threads);
    auto qlc = bench::makeQlcChip();
    runChip(qlc, "QLC (P/E 3000 + 1 y)", 3000, 48, threads);

    if (std::ostream *metrics_file = out.open("metrics.json")) {
        const auto tables = bench::characterize(tlc, 16, threads);
        exportMetrics(tlc, tables, *metrics_file, threads);
    }

    bench::footer("prediction error falls monotonically as more sentinel "
                  "cells are reserved (shot noise ~ 1/sqrt(n)), with "
                  "diminishing returns past 0.2% - the paper's trade-off");
    return 0;
}
