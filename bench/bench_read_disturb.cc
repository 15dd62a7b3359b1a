/**
 * @file
 * Read disturb (paper section IV): "read disturbance does not
 * introduce reliability degradation until one million read
 * operations". Validate the model reproduces that observation and
 * show where degradation finally lands.
 */

#include "bench_support.hh"
#include "nandsim/snapshot.hh"

using namespace flash;

int
main(int argc, char **argv)
{
    util::Args(argc, argv).check();
    bench::header("Read disturb (paper IV, prose)",
                  "MSB RBER vs read count (QLC, P/E 1000, fresh data)",
                  "no reliability degradation until ~1M reads");

    auto chip = bench::makeQlcChip();
    chip.setPeCycles(bench::kEvalBlock, 1000);
    const auto defaults = chip.model().defaultVoltages();
    const int msb = chip.grayCode().msbPage();
    const int wl = 100;

    util::TextTable table;
    table.header({"reads", "MSB RBER", "vs baseline"});

    double baseline = 0.0;
    std::uint64_t previous = 0;
    std::uint64_t seq = 1;
    for (std::uint64_t reads :
         {0ull, 10000ull, 100000ull, 1000000ull, 3000000ull, 10000000ull}) {
        chip.recordReads(bench::kEvalBlock, reads - previous);
        previous = reads;
        const auto snap = nand::WordlineSnapshot::dataRegion(
            chip, bench::kEvalBlock, wl, seq++);
        const double rber = snap.pageRber(msb, defaults);
        if (reads == 0)
            baseline = rber;
        table.row({util::fmtInt(static_cast<std::int64_t>(reads)),
                   util::fmtSci(rber),
                   util::fmt(rber / baseline, 3) + "x"});
    }
    table.print(std::cout);

    bench::footer("RBER is flat through 1M reads and only then starts "
                  "creeping (erase-state upshift toward V1), matching "
                  "the paper's justification for focusing on retention "
                  "and P/E instead");
    return 0;
}
