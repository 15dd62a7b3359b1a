/**
 * @file
 * Fig 6: optimal offsets of V2..V15 per layer on the QLC chip at
 * P/E 3000 with one year of retention.
 */

#include "bench_support.hh"
#include "nandsim/snapshot.hh"
#include "util/stats.hh"

using namespace flash;

int
main(int argc, char **argv)
{
    util::Args(argc, argv).check();
    bench::header("Figure 6",
                  "QLC optimal offsets per layer, V2..V15, P/E 3000 + 1 y",
                  "offsets are all negative, larger for low-numbered "
                  "voltages (V2-V5 in [-23,-9], V11-V15 in [-10,0]), with "
                  "strong layer-to-layer variation");

    auto chip = bench::makeQlcChip();
    bench::ageBlock(chip, bench::kEvalBlock, 3000);

    const auto defaults = chip.model().defaultVoltages();
    const nand::OracleSearch oracle;
    const auto &geom = chip.geometry();

    std::vector<util::RunningStats> per_v(16);

    util::TextTable table;
    {
        std::vector<std::string> h{"layer"};
        for (int k = 2; k <= 15; ++k)
            h.push_back("V" + std::to_string(k));
        table.header(h);
    }

    std::uint64_t seq = 1;
    for (int layer = 0; layer < geom.layers; ++layer) {
        const auto snap = nand::WordlineSnapshot::dataRegion(
            chip, bench::kEvalBlock, layer, seq++);
        const auto opts = oracle.optimalOffsets(snap, defaults);
        std::vector<std::string> row{util::fmtInt(layer)};
        for (int k = 2; k <= 15; ++k) {
            per_v[static_cast<std::size_t>(k)].add(
                opts[static_cast<std::size_t>(k)].offset);
            row.push_back(
                util::fmtInt(opts[static_cast<std::size_t>(k)].offset));
        }
        if (layer % 4 == 0)
            table.row(row);
    }
    table.print(std::cout);

    std::cout << "\nper-voltage summary (mean [min..max] over all 64 "
                 "layers):\n";
    for (int k = 2; k <= 15; ++k) {
        const auto &s = per_v[static_cast<std::size_t>(k)];
        std::cout << "  V" << k << ": " << util::fmt(s.mean(), 1) << " ["
                  << util::fmtInt(static_cast<int>(s.min())) << " .. "
                  << util::fmtInt(static_cast<int>(s.max())) << "]\n";
    }

    bench::footer("all offsets negative, |offset| decreasing from V2 to "
                  "V15, wide min..max layer ranges - the paper's Fig 6 "
                  "structure");
    return 0;
}
