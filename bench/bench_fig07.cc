/**
 * @file
 * Fig 7: spatial distribution of bit errors inside one QLC block at
 * P/E 3000 + 1 year: strong wordline-to-wordline (layer) stripes,
 * near-uniform distribution along each wordline.
 */

#include <cmath>

#include "bench_support.hh"
#include "nandsim/snapshot.hh"
#include "util/stats.hh"

using namespace flash;

int
main(int argc, char **argv)
{
    util::Args(argc, argv).check();
    bench::header("Figure 7",
                  "error positions in one QLC block (P/E 3000 + 1 y)",
                  "horizontal stripes (wordline variation) and uniform "
                  "error density along each wordline");

    auto chip = bench::makeQlcChip();
    bench::ageBlock(chip, bench::kEvalBlock, 3000);

    const auto defaults = chip.model().defaultVoltages();
    const auto &geom = chip.geometry();
    const int msb = chip.grayCode().msbPage();
    constexpr int kSegments = 16;

    util::RunningStats per_wl;
    util::RunningStats chi2_stat;
    int uniform_wls = 0, tested_wls = 0;

    util::TextTable table;
    table.header({"wordline", "errors", "err/segment chi2",
                  "along-WL uniform?"});

    std::uint64_t seq = 1;
    const int seg_cols = geom.dataBitlines / kSegments;
    for (int wl = 0; wl < geom.wordlinesPerBlock(); wl += 16) {
        // Per-segment error counts along the wordline.
        std::vector<double> seg(kSegments, 0.0);
        double total = 0.0;
        for (int s = 0; s < kSegments; ++s) {
            const nand::WordlineSnapshot snap(chip, bench::kEvalBlock, wl,
                                              seq, s * seg_cols,
                                              (s + 1) * seg_cols);
            seg[static_cast<std::size_t>(s)] =
                static_cast<double>(snap.pageErrors(msb, defaults));
            total += seg[static_cast<std::size_t>(s)];
        }
        ++seq;
        per_wl.add(total);

        // Pearson chi-square against a uniform split.
        const double expect = total / kSegments;
        double chi2 = 0.0;
        if (expect > 0.0) {
            for (double c : seg)
                chi2 += (c - expect) * (c - expect) / expect;
        }
        chi2_stat.add(chi2);
        // 15 dof: 99th percentile ~ 30.6.
        const bool uniform = chi2 < 30.6;
        uniform_wls += uniform;
        ++tested_wls;
        table.row({util::fmtInt(wl), util::fmtInt(static_cast<int>(total)),
                   util::fmt(chi2, 1), uniform ? "yes" : "no"});
    }
    table.print(std::cout);

    std::cout << "\nwordline stripe contrast: per-WL MSB errors mean "
              << util::fmt(per_wl.mean(), 0) << " min "
              << util::fmt(per_wl.min(), 0) << " max "
              << util::fmt(per_wl.max(), 0) << " ("
              << util::fmt(per_wl.max() / std::max(1.0, per_wl.min()), 1)
              << "x)\n";
    std::cout << "along-wordline uniformity: " << uniform_wls << "/"
              << tested_wls
              << " wordlines consistent with uniform (chi2, 99%); mean "
                 "chi2 "
              << util::fmt(chi2_stat.mean(), 1) << " (dof 15)\n";

    bench::footer("large error-count variation ACROSS wordlines (stripes) "
                  "but most wordlines uniform ALONG the bitlines - the "
                  "locality the sentinel design exploits; the non-uniform "
                  "minority are the gradient wordlines calibration fixes");
    return 0;
}
