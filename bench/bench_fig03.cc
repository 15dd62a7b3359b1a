/**
 * @file
 * Fig 3: MSB-page RBER per layer at the default vs the optimal read
 * voltages, for TLC and QLC, P/E in {0, 1000, 3000, 5000} with one
 * year of retention.
 */

#include "bench_support.hh"
#include "nandsim/snapshot.hh"
#include "util/stats.hh"

using namespace flash;

namespace
{

void
runChip(nand::Chip &chip, const char *name)
{
    const auto &geom = chip.geometry();
    const auto defaults = chip.model().defaultVoltages();
    const nand::OracleSearch oracle;
    const int msb = chip.grayCode().msbPage();

    util::TextTable table;
    table.header({"layer", "def@0", "opt@0", "def@1K", "opt@1K", "def@3K",
                  "opt@3K", "def@5K", "opt@5K"});

    // Max RBER per layer, as in the paper; one wordline per
    // (layer, string) pair, strings subsampled.
    const std::vector<std::uint32_t> pes{0, 1000, 3000, 5000};
    std::vector<std::vector<double>> def_rber(
        pes.size(), std::vector<double>(static_cast<std::size_t>(geom.layers), 0.0));
    auto opt_rber = def_rber;

    std::uint64_t seq = 1;
    for (std::size_t pi = 0; pi < pes.size(); ++pi) {
        bench::ageBlock(chip, bench::kEvalBlock, pes[pi]);
        for (int layer = 0; layer < geom.layers; ++layer) {
            const int wl = layer; // string 0
            const auto snap = nand::WordlineSnapshot::dataRegion(
                chip, bench::kEvalBlock, wl, seq++);
            const auto vopt = oracle.optimalVoltages(snap, defaults);
            def_rber[pi][static_cast<std::size_t>(layer)] =
                snap.pageRber(msb, defaults);
            opt_rber[pi][static_cast<std::size_t>(layer)] =
                snap.pageRber(msb, vopt);
        }
    }

    for (int layer = 0; layer < geom.layers; layer += 4) {
        std::vector<std::string> row{util::fmtInt(layer)};
        for (std::size_t pi = 0; pi < pes.size(); ++pi) {
            row.push_back(util::fmtSci(
                def_rber[pi][static_cast<std::size_t>(layer)]));
            row.push_back(util::fmtSci(
                opt_rber[pi][static_cast<std::size_t>(layer)]));
        }
        table.row(row);
    }

    util::banner(std::cout, std::string(name) + " (every 4th layer shown)");
    table.print(std::cout);

    for (std::size_t pi = 0; pi < pes.size(); ++pi) {
        util::RunningStats d, o;
        for (int layer = 0; layer < geom.layers; ++layer) {
            d.add(def_rber[pi][static_cast<std::size_t>(layer)]);
            o.add(opt_rber[pi][static_cast<std::size_t>(layer)]);
        }
        std::cout << name << " PE=" << pes[pi]
                  << ": default mean " << util::fmtSci(d.mean()) << " max "
                  << util::fmtSci(d.max()) << " | optimal mean "
                  << util::fmtSci(o.mean()) << " max "
                  << util::fmtSci(o.max())
                  << " | abs layer spread (max-min) "
                  << util::fmtSci(d.max() - d.min()) << " -> "
                  << util::fmtSci(o.max() - o.min()) << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    util::Args(argc, argv).check();
    bench::header("Figure 3",
                  "MSB RBER per layer, default vs optimal voltages, "
                  "P/E in {0,1K,3K,5K}, 1-year retention",
                  "optimal voltages cut RBER up to ~10x on bad layers and "
                  "shrink layer-to-layer variation; RBER grows with P/E");

    auto tlc = bench::makeTlcChip();
    runChip(tlc, "TLC");
    auto qlc = bench::makeQlcChip();
    runChip(qlc, "QLC");

    bench::footer("optimal < default everywhere, both grow with P/E, and "
                  "the absolute layer-to-layer RBER spread shrinks by "
                  "several-fold at the optimal voltages, as in the paper");
    return 0;
}
