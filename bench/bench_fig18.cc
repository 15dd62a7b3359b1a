/**
 * @file
 * Fig 18: the tracking baseline. Error counts at the default,
 * sentinel-calibrated, tracking (one wordline's optimum applied to
 * the whole block) and optimal voltages, for V4/V8/V11/V15 of QLC.
 */

#include "bench_support.hh"
#include "nandsim/snapshot.hh"
#include "util/stats.hh"

using namespace flash;

int
main(int argc, char **argv)
{
    util::Args(argc, argv).check();
    bench::header("Figure 18",
                  "QLC error counts incl. the tracking baseline "
                  "(V4, V8, V11, V15)",
                  "tracking helps some wordlines but hurts others (can "
                  "exceed default); sentinel wins consistently");

    auto chip = bench::makeQlcChip();
    const auto tables = bench::characterize(chip, 48);
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    chip.programBlock(bench::kEvalBlock, bench::kChipSeed ^ 0x18, overlay);
    bench::ageBlock(chip, bench::kEvalBlock, 3000);

    const auto defaults = chip.model().defaultVoltages();
    const nand::OracleSearch oracle;

    // Tracking: record wordline 0's optimal voltages for the block.
    const auto ref_snap = nand::WordlineSnapshot::dataRegion(
        chip, bench::kEvalBlock, 0, 0xaa);
    const auto tracked = oracle.optimalVoltages(ref_snap, defaults);

    const std::vector<int> ks{4, 8, 11, 15};
    std::vector<util::RunningStats> def(ks.size()), cal(ks.size()),
        trk(ks.size()), opt(ks.size());
    std::vector<int> tracking_worse(ks.size(), 0);
    int wordlines = 0;

    for (int wl = 0; wl < chip.geometry().wordlinesPerBlock(); wl += 8) {
        const auto acc = core::evaluateWordlineAccuracy(
            chip, bench::kEvalBlock, wl, tables, overlay);
        const auto data = nand::WordlineSnapshot::dataRegion(
            chip, bench::kEvalBlock, wl, 0x5000 + wl);
        ++wordlines;
        for (std::size_t i = 0; i < ks.size(); ++i) {
            const int k = ks[i];
            const auto &b = acc.boundaries[static_cast<std::size_t>(k)];
            const auto tracked_err = data.boundaryErrors(
                k, tracked[static_cast<std::size_t>(k)]);
            def[i].add(b.errDefault);
            cal[i].add(b.errCalibrated);
            trk[i].add(tracked_err);
            opt[i].add(b.errOptimal);
            tracking_worse[i] += tracked_err > b.errDefault;
        }
    }

    util::TextTable table;
    table.header({"voltage", "default", "calibrated", "tracking",
                  "optimal", "tracking>default"});
    for (std::size_t i = 0; i < ks.size(); ++i) {
        table.row({"V" + std::to_string(ks[i]),
                   util::fmt(def[i].mean(), 0), util::fmt(cal[i].mean(), 0),
                   util::fmt(trk[i].mean(), 0), util::fmt(opt[i].mean(), 0),
                   util::fmtInt(tracking_worse[i]) + "/"
                       + util::fmtInt(wordlines)});
    }
    table.print(std::cout);

    bench::footer("tracking reduces errors on average but leaves a "
                  "visible fraction of wordlines no better (or worse) "
                  "than the default - per-wordline variation defeats "
                  "block-level tracking - while the calibrated sentinel "
                  "voltages stay near optimal everywhere");
    return 0;
}
