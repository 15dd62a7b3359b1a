/**
 * @file
 * Fig 12: the calibration signal. Number of state-changing cells
 * between V_default and (V_optimal + position offset), normalized by
 * the zero-offset (successful prediction) count. Case 1 offsets
 * (undershoot) must sit below 1, case 2 (overshoot) above 1.
 */

#include "bench_support.hh"
#include "nandsim/snapshot.hh"
#include "util/stats.hh"

using namespace flash;

int
main(int argc, char **argv)
{
    util::Args(argc, argv).check();
    bench::header("Figure 12",
                  "normalized state-change counts vs position offset "
                  "(QLC, P/E 3000 + 1 y)",
                  "counts order monotonically around the successful "
                  "prediction: undershoot (case 1) < 1 < overshoot "
                  "(case 2)");

    auto chip = bench::makeQlcChip();
    bench::ageBlock(chip, bench::kEvalBlock, 3000);

    const auto defaults = chip.model().defaultVoltages();
    const int k_s = 8;
    const int v_def = defaults[static_cast<std::size_t>(k_s)];
    const nand::OracleSearch oracle;

    // Position offsets relative to the real optimum. Positive = the
    // probe voltage did not tune far enough (case 1: window between
    // V_def and V_probe is smaller); negative = tuned too far
    // (case 2: window larger).
    const std::vector<int> offsets{9, 6, 3, 0, -3, -6, -9};
    std::vector<util::RunningStats> norm(offsets.size());

    std::uint64_t seq = 1;
    for (int wl = 0; wl < chip.geometry().wordlinesPerBlock(); wl += 8) {
        const auto snap = nand::WordlineSnapshot::dataRegion(
            chip, bench::kEvalBlock, wl, seq++);
        const int v_opt =
            v_def + oracle.optimalBoundary(snap, k_s, v_def).offset;
        const auto base =
            static_cast<double>(snap.cellsInVthRange(v_opt, v_def));
        if (base <= 0.0)
            continue;
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            const auto nc = static_cast<double>(
                snap.cellsInVthRange(v_opt + offsets[i], v_def));
            norm[i].add(nc / base);
        }
    }

    util::TextTable table;
    table.header({"position offset", "case", "normalized state-change",
                  "vs 1.0"});
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        const char *c = offsets[i] > 0   ? "1 (undershoot)"
                        : offsets[i] < 0 ? "2 (overshoot)"
                                         : "success";
        const double m = norm[i].mean();
        table.row({util::fmtInt(offsets[i]), c, util::fmt(m, 3),
                   m < 0.995 ? "<" : (m > 1.005 ? ">" : "=")});
    }
    table.print(std::cout);

    bench::footer("normalized counts increase monotonically from case-1 "
                  "offsets (< 1) through the successful prediction (= 1) "
                  "to case-2 offsets (> 1) - the ordering the NCa vs "
                  "NCs/r comparison relies on (paper Fig 12)");
    return 0;
}
