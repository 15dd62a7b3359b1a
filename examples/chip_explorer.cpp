/**
 * @file
 * chip_explorer: a small characterization tool over the simulated
 * chip, the kind of probe you would run on a flash test platform.
 *
 * Usage: chip_explorer [--type tlc|qlc] [--pe N] [--hours H] [--temp C]
 *   (defaults: qlc, 3000 P/E, 8760 h, 25 C). A mistyped flag or
 *   number exits 2 before any work.
 *
 * Prints, for the chosen condition:
 *  - per-page RBER at the default voltages,
 *  - the error-vs-offset curve of the mid boundary (paper Fig 2),
 *  - per-layer optimal offsets,
 *  - the up/down error asymmetry the sentinel voltage sees.
 */

#include <cstdio>
#include <string>

#include "nandsim/chip.hh"
#include "nandsim/oracle.hh"
#include "nandsim/snapshot.hh"
#include "util/args.hh"
#include "util/stats.hh"

using namespace flash;

int
main(int argc, char **argv)
{
    util::Args args(argc, argv);
    const std::string type = args.choice("type", {"tlc", "qlc"}, "qlc");
    const auto pe =
        static_cast<std::uint32_t>(args.number<int>("pe", 3000, 0, 100000));
    const double hours = args.number<double>("hours", 8760.0, 0.0, 1e6);
    const double temp = args.number<double>("temp", 25.0, -40.0, 125.0);
    args.check();

    auto geometry =
        type == "tlc" ? nand::paperTlcGeometry() : nand::paperQlcGeometry();
    geometry.blocks = 1;
    const auto params =
        type == "tlc" ? nand::tlcVoltageParams() : nand::qlcVoltageParams();
    nand::Chip chip(geometry, params, 99);
    chip.setPeCycles(0, pe);
    chip.age(0, hours, temp);

    std::printf("%s | P/E %u | %.0f h at %.0f C (effective %.0f h room)\n",
                geometry.describe().c_str(), pe, hours, temp,
                chip.blockAge(0).effRetentionHours);

    const auto defaults = chip.model().defaultVoltages();
    const nand::OracleSearch oracle;

    // Per-page RBER on a sample wordline.
    const int wl = geometry.wordlinesPerBlock() / 2;
    const auto snap = nand::WordlineSnapshot::dataRegion(chip, 0, wl, 1);
    std::printf("\nper-page RBER at default voltages (WL %d):\n", wl);
    for (int p = 0; p < geometry.pagesPerWordline(); ++p) {
        std::printf("  %-5s %.3e\n", chip.grayCode().pageName(p).c_str(),
                    snap.pageRber(p, defaults));
    }

    // The error-vs-offset curve of the mid boundary (Fig 2's shape).
    const int mid = geometry.states() / 2;
    std::printf("\nerrors of V%d vs voltage offset (WL %d):\n", mid, wl);
    const int vd = defaults[static_cast<std::size_t>(mid)];
    for (int off = -35; off <= 35; off += 5) {
        const auto e = snap.boundaryErrors(mid, vd + off);
        std::printf("  %+4d  %6llu  %s\n", off,
                    static_cast<unsigned long long>(e),
                    std::string(std::min<std::size_t>(60, e / 8), '#')
                        .c_str());
    }

    // Per-layer optimal offsets of the mid boundary.
    std::printf("\nper-layer optimal offset of V%d:\n", mid);
    util::RunningStats stats;
    for (int layer = 0; layer < geometry.layers; layer += 8) {
        const auto lsnap = nand::WordlineSnapshot::dataRegion(
            chip, 0, layer, 100 + static_cast<std::uint64_t>(layer));
        const int opt = oracle.optimalBoundary(lsnap, mid, vd).offset;
        stats.add(opt);
        std::printf("  layer %2d: %+d\n", layer, opt);
    }
    std::printf("  mean %+.1f, min %+.0f, max %+.0f\n", stats.mean(),
                stats.min(), stats.max());

    // Up/down error asymmetry at the mid boundary: the sentinel
    // signal.
    const auto up = snap.upErrors(mid, vd);
    const auto down = snap.downErrors(mid, vd);
    std::printf("\nV%d up errors %llu vs down errors %llu -> the error "
                "difference a sentinel read measures\n",
                mid, static_cast<unsigned long long>(up),
                static_cast<unsigned long long>(down));
    return 0;
}
