/**
 * @file
 * Fig 17: per-voltage error counts on the QLC chip at the default,
 * inferred, calibrated and optimal read voltages.
 */

#include "bench_support.hh"
#include "util/stats.hh"

using namespace flash;

int
main(int argc, char **argv)
{
    util::Args(argc, argv).check();
    bench::header("Figure 17",
                  "QLC per-voltage error counts: default / inferred / "
                  "calibrated / optimal (P/E 3000 + 1 y)",
                  "large reductions for V1..V8; from V9 to V15 the "
                  "default is already close to optimal");

    auto chip = bench::makeQlcChip();
    const auto tables = bench::characterize(chip, 48);
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    chip.programBlock(bench::kEvalBlock, bench::kChipSeed ^ 0x17, overlay);
    bench::ageBlock(chip, bench::kEvalBlock, 3000);

    std::vector<util::RunningStats> def(16), inf(16), cal(16), opt(16);
    for (int wl = 0; wl < chip.geometry().wordlinesPerBlock(); wl += 8) {
        const auto acc = core::evaluateWordlineAccuracy(
            chip, bench::kEvalBlock, wl, tables, overlay);
        for (int k = 1; k <= 15; ++k) {
            const auto &b = acc.boundaries[static_cast<std::size_t>(k)];
            def[static_cast<std::size_t>(k)].add(b.errDefault);
            inf[static_cast<std::size_t>(k)].add(b.errInferred);
            cal[static_cast<std::size_t>(k)].add(b.errCalibrated);
            opt[static_cast<std::size_t>(k)].add(b.errOptimal);
        }
    }

    util::TextTable table;
    table.header({"voltage", "default", "inferred", "calibrated",
                  "optimal", "def/opt"});
    for (int k = 1; k <= 15; ++k) {
        const auto &d = def[static_cast<std::size_t>(k)];
        const auto &i = inf[static_cast<std::size_t>(k)];
        const auto &c = cal[static_cast<std::size_t>(k)];
        const auto &o = opt[static_cast<std::size_t>(k)];
        table.row({"V" + std::to_string(k), util::fmt(d.mean(), 0),
                   util::fmt(i.mean(), 0), util::fmt(c.mean(), 0),
                   util::fmt(o.mean(), 0),
                   util::fmt(d.mean() / std::max(1.0, o.mean()), 1) + "x"});
    }
    table.print(std::cout);

    bench::footer("identified voltages land close to the optimal error "
                  "counts for all fifteen voltages; reductions are "
                  "largest on the low/mid voltages, as in the paper");
    return 0;
}
