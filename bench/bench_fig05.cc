/**
 * @file
 * Fig 5: optimal offsets of four read voltages (V3, V6, V8, V14) per
 * wordline after one hour at room temperature vs inside a hot
 * computer case.
 */

#include "bench_support.hh"
#include "nandsim/snapshot.hh"
#include "util/stats.hh"

using namespace flash;

int
main(int argc, char **argv)
{
    util::Args(argc, argv).check();
    bench::header("Figure 5",
                  "QLC optimal offsets of V3/V6/V8/V14 per wordline, "
                  "1 h at 25 C vs 80 C",
                  "room-temperature optima sit near 0; one hot hour "
                  "shifts every optimum clearly downward");

    auto chip = bench::makeQlcChip(3);
    bench::ageBlock(chip, 1, 1000, 1.0, 25.0);
    bench::ageBlock(chip, 2, 1000, 1.0, 80.0);

    const auto defaults = chip.model().defaultVoltages();
    const nand::OracleSearch oracle;
    const std::vector<int> ks{3, 6, 8, 14};

    util::TextTable table;
    table.header({"wordline", "V3-Room", "V3-High", "V6-Room", "V6-High",
                  "V8-Room", "V8-High", "V14-Room", "V14-High"});

    std::vector<util::RunningStats> room(ks.size()), high(ks.size());

    std::uint64_t seq = 1;
    for (int wl = 0; wl < chip.geometry().wordlinesPerBlock(); wl += 16) {
        const auto snap_room =
            nand::WordlineSnapshot::dataRegion(chip, 1, wl, seq++);
        const auto snap_high =
            nand::WordlineSnapshot::dataRegion(chip, 2, wl, seq++);
        std::vector<std::string> row{util::fmtInt(wl)};
        for (std::size_t i = 0; i < ks.size(); ++i) {
            const int r = oracle
                              .optimalBoundary(snap_room, ks[i],
                                               defaults[static_cast<
                                                   std::size_t>(ks[i])])
                              .offset;
            const int h = oracle
                              .optimalBoundary(snap_high, ks[i],
                                               defaults[static_cast<
                                                   std::size_t>(ks[i])])
                              .offset;
            room[i].add(r);
            high[i].add(h);
            row.push_back(util::fmtInt(r));
            row.push_back(util::fmtInt(h));
        }
        table.row(row);
    }
    table.print(std::cout);

    std::cout << '\n';
    for (std::size_t i = 0; i < ks.size(); ++i) {
        std::cout << "V" << ks[i] << ": room mean "
                  << util::fmt(room[i].mean(), 1) << "  high mean "
                  << util::fmt(high[i].mean(), 1) << "  separation "
                  << util::fmt(room[i].mean() - high[i].mean(), 1)
                  << " DAC\n";
    }

    bench::footer("the hot hour moves every voltage's optimum several DAC "
                  "below its room value, matching the paper's -Room vs "
                  "-High separation");
    return 0;
}
