/**
 * @file
 * Ablations of the design choices DESIGN.md calls out (beyond the
 * paper's own figures):
 *
 *  A. Sentinel voltage choice — the paper picks the LSB boundary (V8
 *     on QLC) and claims any boundary would work; sweep it.
 *  B. Calibration step delta — the paper leaves delta as "a small
 *     value"; sweep it.
 *  C. Sentinel placement inside the OOB area — the tail sees the
 *     largest along-wordline gradient bias; compare against the OOB
 *     front.
 *  D. Combined policy (Related Work): first read at FTL-tracked
 *     voltages, sentinel machinery on failure.
 */

#include "bench_support.hh"
#include "core/read_policy.hh"
#include "nandsim/oracle.hh"
#include "util/stats.hh"

using namespace flash;

namespace
{

struct AccuracySummary
{
    double inferPct = 0.0;
    double calibPct = 0.0;
};

AccuracySummary
accuracy(const nand::Chip &chip, const core::Characterization &tables,
         const nand::SentinelOverlay &overlay, int threads)
{
    const auto accs = core::evaluateBlockAccuracy(
        chip, bench::kEvalBlock, tables, overlay, {}, 16, threads);
    int infer_ok = 0, calib_ok = 0, total = 0;
    for (const auto &acc : accs) {
        for (int k = 1; k < chip.geometry().states(); ++k) {
            infer_ok += acc.boundaries[static_cast<std::size_t>(k)].inferOk;
            calib_ok += acc.boundaries[static_cast<std::size_t>(k)].calibOk;
            ++total;
        }
    }
    return {100.0 * infer_ok / total, 100.0 * calib_ok / total};
}

void
ablationSentinelVoltage(int threads)
{
    util::banner(std::cout,
                 "A. sentinel voltage choice (QLC, P/E 3000 + 1 y)");
    util::TextTable table;
    table.header({"sentinel voltage", "assist senses", "infer ok",
                  "calib ok"});
    for (int k_s : {4, 6, 8, 10, 12}) {
        auto chip = bench::makeQlcChip();
        core::CharOptions opt;
        opt.sentinel.sentinelBoundary = k_s;
        opt.wordlineStride = 96;
        opt.threads = threads;
        const auto tables =
            core::FactoryCharacterizer(opt).run(chip);
        const auto overlay =
            core::makeOverlay(chip.geometry(), opt.sentinel);
        chip.programBlock(bench::kEvalBlock, 1, overlay);
        bench::ageBlock(chip, bench::kEvalBlock, 3000);
        const auto a = accuracy(chip, tables, overlay, threads);
        // Assist read cost: number of voltages of the page that
        // senses the sentinel boundary.
        const int page = chip.grayCode().pageOfBoundary(k_s);
        const int senses = static_cast<int>(
            chip.grayCode().boundariesOfPage(page).size());
        table.row({"V" + std::to_string(k_s), util::fmtInt(senses),
                   util::fmt(a.inferPct, 1) + "%",
                   util::fmt(a.calibPct, 1) + "%"});
    }
    table.print(std::cout);
    std::cout << "-> accuracy is nearly flat in the boundary choice (the "
                 "correlations carry the information), but only the LSB "
                 "boundary keeps the assist read at a single sense - the "
                 "paper's V8 choice.\n";
}

void
ablationDelta(int threads)
{
    util::banner(std::cout,
                 "B. calibration step delta (QLC, P/E 3000 + 1 y)");
    auto chip = bench::makeQlcChip();
    const auto tables = bench::characterize(chip, 96, threads);
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    chip.programBlock(bench::kEvalBlock, 1, overlay);
    bench::ageBlock(chip, bench::kEvalBlock, 3000);

    util::TextTable table;
    table.header({"delta", "calib ok", "mean calib steps"});
    for (int delta : {1, 2, 3, 5, 8}) {
        int calib_ok = 0, total = 0;
        util::RunningStats steps;
        core::AccuracyOptions opt;
        opt.calibration.delta = delta;
        const auto accs = core::evaluateBlockAccuracy(
            chip, bench::kEvalBlock, tables, overlay, opt, 16, threads);
        for (const auto &acc : accs) {
            steps.add(acc.calibSteps);
            for (int k = 1; k < chip.geometry().states(); ++k) {
                calib_ok +=
                    acc.boundaries[static_cast<std::size_t>(k)].calibOk;
                ++total;
            }
        }
        table.row({util::fmtInt(delta),
                   util::fmt(100.0 * calib_ok / total, 1) + "%",
                   util::fmt(steps.mean(), 2)});
    }
    table.print(std::cout);
    std::cout << "-> small deltas calibrate precisely; very large deltas "
                 "overshoot the error budget. delta ~2-3 DAC is the sweet "
                 "spot, matching the paper's 'small value'.\n";
}

void
ablationPlacement(int threads)
{
    util::banner(std::cout,
                 "C. sentinel placement in the OOB area (QLC)");
    auto chip = bench::makeQlcChip();
    const auto tables = bench::characterize(chip, 96, threads);
    const auto geom = chip.geometry();

    util::TextTable table;
    table.header({"placement", "infer ok", "calib ok"});
    for (const bool tail : {true, false}) {
        auto overlay =
            core::makeOverlay(geom, core::SentinelConfig{});
        if (!tail)
            overlay.start = geom.dataBitlines; // front of the OOB
        chip.programBlock(bench::kEvalBlock, 1, overlay);
        bench::ageBlock(chip, bench::kEvalBlock, 3000);
        const auto a = accuracy(chip, tables, overlay, threads);
        table.row({tail ? "OOB tail (default)" : "OOB front",
                   util::fmt(a.inferPct, 1) + "%",
                   util::fmt(a.calibPct, 1) + "%"});
    }
    table.print(std::cout);
    std::cout << "-> the tail sits at the end of any along-wordline "
                 "gradient and is the worst case for sentinel bias; the "
                 "front fares slightly better, but calibration erases "
                 "most of the difference either way.\n";
}

void
ablationCombined(int threads)
{
    util::banner(std::cout,
                 "D. combined policy: tracked first read + sentinel "
                 "(TLC, P/E 5000 + 1 y)");
    auto chip = bench::makeTlcChip();
    const auto tables = bench::characterize(chip, 16, threads);
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    chip.programBlock(bench::kEvalBlock, 1, overlay);
    bench::ageBlock(chip, bench::kEvalBlock, 5000);

    const ecc::EccModel ecc_model(ecc::EccConfig{16384, 145});
    const core::LatencyParams lat;
    const auto defaults = chip.model().defaultVoltages();

    core::VendorRetryPolicy vendor(chip.model());
    core::SentinelPolicy sentinel(tables, defaults);

    core::TrackingPolicy tracker(chip.model());
    tracker.track(chip, bench::kEvalBlock);
    core::SentinelPolicy combined(tables, defaults);
    combined.setFirstReadVoltages(tracker.trackedVoltages());

    util::TextTable table;
    table.header({"policy", "mean retries", "first read ok", "mean "
                  "latency (us)", "failures"});
    for (auto *p : {static_cast<core::ReadPolicy *>(&vendor),
                    static_cast<core::ReadPolicy *>(&sentinel),
                    static_cast<core::ReadPolicy *>(&combined)}) {
        const auto stats = core::evaluateBlock(
            chip, bench::kEvalBlock, *p, ecc_model, overlay, lat, -1, 2,
            threads);
        int first_ok = 0;
        for (int r : stats.retriesPerWordline)
            first_ok += r == 0;
        const std::string name =
            p == &combined ? "tracked+sentinel" : p->name();
        table.row({name, util::fmt(stats.retries.mean(), 2),
                   util::fmtInt(first_ok) + "/"
                       + util::fmtInt(stats.sessions),
                   util::fmt(stats.latencyUs.mean(), 0),
                   util::fmtInt(stats.failures)});
    }
    table.print(std::cout);
    std::cout << "-> starting from the tracked voltages makes many first "
                 "reads succeed outright, and the sentinel machinery "
                 "still catches the rest - the combination the paper "
                 "suggests in Related Work.\n";
}

void
ablationTemperatureBands(int threads)
{
    util::banner(std::cout,
                 "E. temperature-banded correlation tables (paper III-D)");
    // Characterize both bands on one chip, then evaluate a block that
    // spent its retention hot (80 C) with the matched vs mismatched
    // band tables.
    auto chip = bench::makeQlcChip();
    core::CharOptions opt;
    opt.wordlineStride = 96;
    opt.threads = threads;
    const core::FactoryCharacterizer characterizer(opt);
    const auto bands = characterizer.runBands(chip, {25.0, 80.0});

    const auto overlay =
        core::makeOverlay(chip.geometry(), opt.sentinel);
    chip.programBlock(bench::kEvalBlock, 5, overlay);
    chip.setPeCycles(bench::kEvalBlock, 3000);
    chip.refresh(bench::kEvalBlock);
    // One year's worth of effective retention, accumulated hot.
    chip.age(bench::kEvalBlock,
             bench::kOneYearHours
                 / chip.model().arrheniusFactor(80.0),
             80.0);

    util::TextTable table;
    table.header({"tables used", "infer ok", "calib ok"});
    for (const auto &band : bands) {
        const auto a = accuracy(chip, band, overlay, threads);
        const bool matched = band.tempBandC > 50.0;
        table.row({(matched ? "80 C band (matched)"
                            : "25 C band (mismatched)"),
                   util::fmt(a.inferPct, 1) + "%",
                   util::fmt(a.calibPct, 1) + "%"});
    }
    table.print(std::cout);
    std::cout << "-> hot retention tilts the sensitivity profile, so the "
                 "matched band's correlation table infers slightly better "
                 "(the tilt is modest at a one-year-equivalent bake) - "
                 "why the paper keeps one table per temperature range.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    util::Args args(argc, argv);
    const int threads = bench::threadsArg(args);
    args.check();
    bench::header("Ablations",
                  "design-choice studies beyond the paper's figures",
                  "(no direct paper counterpart; extends Figs 13/15)");
    ablationSentinelVoltage(threads);
    ablationDelta(threads);
    ablationPlacement(threads);
    ablationCombined(threads);
    ablationTemperatureBands(threads);
    return 0;
}
