/**
 * @file
 * Fig 16: per-voltage error counts on the TLC chip at the default,
 * inferred, calibrated and optimal read voltages.
 */

#include "bench_support.hh"
#include "util/stats.hh"

using namespace flash;

int
main(int argc, char **argv)
{
    util::Args(argc, argv).check();
    bench::header("Figure 16",
                  "TLC per-voltage error counts: default / inferred / "
                  "calibrated / optimal (P/E 5000 + 1 y)",
                  "inferred voltages cut the default errors massively; "
                  "calibrated sits between inferred and optimal");

    auto chip = bench::makeTlcChip();
    const auto tables = bench::characterize(chip, 8);
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    chip.programBlock(bench::kEvalBlock, bench::kChipSeed ^ 0x16, overlay);
    bench::ageBlock(chip, bench::kEvalBlock, 5000);

    std::vector<util::RunningStats> def(8), inf(8), cal(8), opt(8);
    for (int wl = 0; wl < chip.geometry().wordlinesPerBlock(); wl += 4) {
        const auto acc = core::evaluateWordlineAccuracy(
            chip, bench::kEvalBlock, wl, tables, overlay);
        for (int k = 1; k <= 7; ++k) {
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
    for (int k = 1; k <= 7; ++k) {
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
    std::cout << "\n(mean bit errors per wordline over the sampled block; "
                 "the paper plots the per-wordline series)\n";

    bench::footer("default >> inferred >= calibrated ~ optimal for every "
                  "voltage, the ordering of the paper's four curves");
    return 0;
}
