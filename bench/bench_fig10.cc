/**
 * @file
 * Fig 10: the factory curve fit d -> optimal sentinel-voltage offset
 * (degree-5 polynomial) and the inferred vs ground-truth offsets per
 * wordline, for V4 of TLC and V8 of QLC.
 */

#include "bench_support.hh"
#include "core/error_difference.hh"
#include "core/inference.hh"
#include "nandsim/snapshot.hh"
#include "util/stats.hh"

using namespace flash;

namespace
{

void
runChip(nand::Chip &chip, const char *name, std::uint32_t pe,
        int char_stride)
{
    const auto tables = bench::characterize(chip, char_stride);
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    const auto defaults = chip.model().defaultVoltages();
    const int k_s = tables.sentinelBoundary;
    const int v_s = defaults[static_cast<std::size_t>(k_s)];

    util::banner(std::cout,
                 std::string(name) + " V" + std::to_string(k_s)
                     + " fit (deg-5 polynomial)");
    std::cout << "characterization samples: " << tables.samples
              << ", fit RMSE " << util::fmt(tables.dFitRmse, 2)
              << " DAC\n";
    std::cout << "fitted f(d) at sample points:\n";
    for (double d : {-0.08, -0.04, -0.02, 0.0, 0.02, 0.04})
        std::cout << "  f(" << util::fmt(d, 2)
                  << ") = " << util::fmt(tables.dToVopt(d), 1) << " DAC\n";

    // Inferred vs ground truth per wordline on the aged eval block.
    chip.programBlock(bench::kEvalBlock, bench::kChipSeed ^ 0xf1f, overlay);
    bench::ageBlock(chip, bench::kEvalBlock, pe);
    const core::InferenceEngine engine(tables, defaults);
    const nand::OracleSearch oracle;

    util::TextTable table;
    table.header({"wordline", "groundtruth", "inferred", "error"});
    util::RunningStats abs_err;
    std::uint64_t seq = 0x9000;
    for (int wl = 0; wl < chip.geometry().wordlinesPerBlock(); wl += 8) {
        const auto sent = core::sentinelSnapshot(chip, bench::kEvalBlock,
                                                 wl, overlay, seq++);
        const double d =
            core::countSentinelErrors(sent, k_s, v_s).dRate();
        const int inferred = engine.infer(d).sentinelOffset;

        const auto data = nand::WordlineSnapshot::dataRegion(
            chip, bench::kEvalBlock, wl, seq++);
        const int truth = oracle.optimalBoundary(data, k_s, v_s).offset;
        abs_err.add(std::abs(inferred - truth));
        if (wl % 32 == 0)
            table.row({util::fmtInt(wl), util::fmtInt(truth),
                       util::fmtInt(inferred),
                       util::fmtInt(inferred - truth)});
    }
    table.print(std::cout);
    std::cout << "mean |inferred - groundtruth| = "
              << util::fmt(abs_err.mean(), 2) << " DAC (max "
              << util::fmt(abs_err.max(), 0) << ")\n";
}

} // namespace

int
main(int argc, char **argv)
{
    util::Args(argc, argv).check();
    bench::header("Figure 10",
                  "d -> Vopt curve fit and inferred vs ground truth "
                  "(V4 of TLC, V8 of QLC)",
                  "the degree-5 fit tracks the samples; inferred offsets "
                  "sit on or near the ground-truth curve");

    auto tlc = bench::makeTlcChip();
    runChip(tlc, "TLC", 5000, 16);
    auto qlc = bench::makeQlcChip();
    runChip(qlc, "QLC", 3000, 48);

    bench::footer("f(d) is monotone (more negative d -> lower optimum) "
                  "and per-wordline inference lands within a few DAC of "
                  "the ground truth, as in the paper's right panels");
    return 0;
}
