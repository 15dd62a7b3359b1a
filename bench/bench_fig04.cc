/**
 * @file
 * Fig 4: QLC per-page RBER per wordline after one hour of retention
 * at room temperature (25 C) vs inside a hot computer case (80 C).
 */

#include "bench_support.hh"
#include "nandsim/snapshot.hh"
#include "util/stats.hh"

using namespace flash;

int
main(int argc, char **argv)
{
    util::Args(argc, argv).check();
    bench::header("Figure 4",
                  "QLC per-page RBER per wordline, 1 h at 25 C vs 80 C",
                  "one hour at 80 C already multiplies RBER on all pages "
                  "(Arrhenius-accelerated retention)");

    auto chip = bench::makeQlcChip(3);
    // Block 1: one hour at room temperature. Block 2: one hour hot.
    bench::ageBlock(chip, 1, 1000, 1.0, 25.0);
    bench::ageBlock(chip, 2, 1000, 1.0, 80.0);

    const auto defaults = chip.model().defaultVoltages();
    const auto &geom = chip.geometry();
    const int pages = geom.pagesPerWordline();

    util::TextTable table;
    table.header({"wordline", "LSB-Room", "LSB-High", "CSB-Room",
                  "CSB-High", "CSB2-Room", "CSB2-High", "MSB-Room",
                  "MSB-High"});

    std::vector<util::RunningStats> room(static_cast<std::size_t>(pages)),
        high(static_cast<std::size_t>(pages));

    std::uint64_t seq = 1;
    for (int wl = 0; wl < geom.wordlinesPerBlock(); wl += 16) {
        const auto snap_room =
            nand::WordlineSnapshot::dataRegion(chip, 1, wl, seq++);
        const auto snap_high =
            nand::WordlineSnapshot::dataRegion(chip, 2, wl, seq++);
        std::vector<std::string> row{util::fmtInt(wl)};
        for (int p = 0; p < pages; ++p) {
            const double r = snap_room.pageRber(p, defaults);
            const double h = snap_high.pageRber(p, defaults);
            room[static_cast<std::size_t>(p)].add(r);
            high[static_cast<std::size_t>(p)].add(h);
            row.push_back(util::fmtSci(r));
            row.push_back(util::fmtSci(h));
        }
        table.row(row);
    }
    table.print(std::cout);

    std::cout << '\n';
    for (int p = 0; p < pages; ++p) {
        const double r = room[static_cast<std::size_t>(p)].mean();
        const double h = high[static_cast<std::size_t>(p)].mean();
        std::cout << chip.grayCode().pageName(p) << ": room mean "
                  << util::fmtSci(r) << "  high mean " << util::fmtSci(h)
                  << "  ratio " << util::fmt(h / std::max(1e-12, r), 1)
                  << "x\n";
    }

    bench::footer("the 80 C hour raises RBER on every page, by a large "
                  "factor, as the paper's room-vs-case comparison shows");
    return 0;
}
