/**
 * @file
 * Fig 8: correlation between the optimal offset of every read voltage
 * and the optimal offset of V8 on the QLC chip, pooled over P/E and
 * retention conditions.
 */

#include "bench_support.hh"
#include "nandsim/snapshot.hh"
#include "util/linear_fit.hh"

using namespace flash;

int
main(int argc, char **argv)
{
    util::Args(argc, argv).check();
    bench::header("Figure 8",
                  "correlation of each optimal voltage vs optimal V8 (QLC)",
                  "every pair is strongly linear; one voltage predicts "
                  "the others");

    auto chip = bench::makeQlcChip();
    const auto defaults = chip.model().defaultVoltages();
    const nand::OracleSearch oracle;
    const auto &geom = chip.geometry();

    std::vector<std::vector<double>> xs(16), ys(16);

    std::uint64_t seq = 1;
    for (std::uint32_t pe : {0u, 1000u, 3000u}) {
        for (double hours : {720.0, 4380.0, 8760.0}) {
            bench::ageBlock(chip, bench::kEvalBlock, pe, hours);
            for (int wl = 0; wl < geom.wordlinesPerBlock(); wl += 24) {
                const auto snap = nand::WordlineSnapshot::dataRegion(
                    chip, bench::kEvalBlock, wl, seq++);
                const auto opts = oracle.optimalOffsets(snap, defaults);
                const double v8 = opts[8].offset;
                for (int k = 1; k <= 15; ++k) {
                    xs[static_cast<std::size_t>(k)].push_back(v8);
                    ys[static_cast<std::size_t>(k)].push_back(
                        opts[static_cast<std::size_t>(k)].offset);
                }
            }
        }
    }

    util::TextTable table;
    table.header({"voltage", "slope vs V8", "intercept", "r^2", "samples"});
    double min_prog_r2 = 1.0;
    for (int k = 1; k <= 15; ++k) {
        const auto fit = util::linearFit(xs[static_cast<std::size_t>(k)],
                                         ys[static_cast<std::size_t>(k)]);
        if (k >= 2)
            min_prog_r2 = std::min(min_prog_r2, fit.r2);
        table.row({"V" + std::to_string(k), util::fmt(fit.slope, 3),
                   util::fmt(fit.intercept, 2), util::fmt(fit.r2, 3),
                   util::fmtInt(static_cast<std::int64_t>(fit.n))});
    }
    table.print(std::cout);

    std::cout << "\nweakest programmed-boundary correlation (V2..V15): r^2 "
              << util::fmt(min_prog_r2, 3) << '\n';

    bench::footer("near-linear relationships with slopes decreasing from "
                  "V2 to V15 and high r^2 for the programmed boundaries "
                  "(V1 is noisier - the wide erase state), matching Fig 8");
    return 0;
}
