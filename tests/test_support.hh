/**
 * @file
 * Shared fixtures and geometry helpers for the test suite.
 */

#ifndef SENTINELFLASH_TESTS_TEST_SUPPORT_HH
#define SENTINELFLASH_TESTS_TEST_SUPPORT_HH

#include <cstdint>
#include <vector>

#include "nandsim/chip.hh"
#include "nandsim/geometry.hh"
#include "nandsim/voltage_model.hh"

namespace flash::test
{

/**
 * Medium geometry: enough bitlines for statistically meaningful
 * sentinel counts (0.2% ~ 74 cells) while staying fast.
 */
inline nand::ChipGeometry
mediumQlcGeometry()
{
    nand::ChipGeometry g;
    g.cellType = nand::CellType::QLC;
    g.layers = 16;
    g.strings = 2;
    g.dataBitlines = 32768;
    g.oobBitlines = 4096;
    g.blocks = 3;
    return g;
}

inline nand::ChipGeometry
mediumTlcGeometry()
{
    nand::ChipGeometry g = mediumQlcGeometry();
    g.cellType = nand::CellType::TLC;
    return g;
}

/** An aged medium QLC chip with deterministic seed. */
inline nand::Chip
agedQlcChip(std::uint64_t seed = 1234, std::uint32_t pe = 3000,
            double hours = 8760.0)
{
    nand::Chip chip(mediumQlcGeometry(), nand::qlcVoltageParams(), seed);
    for (int b = 0; b < chip.geometry().blocks; ++b) {
        chip.setPeCycles(b, pe);
        chip.age(b, hours, 25.0);
    }
    return chip;
}

/** An aged medium TLC chip. */
inline nand::Chip
agedTlcChip(std::uint64_t seed = 1234, std::uint32_t pe = 5000,
            double hours = 8760.0)
{
    nand::Chip chip(mediumTlcGeometry(), nand::tlcVoltageParams(), seed);
    for (int b = 0; b < chip.geometry().blocks; ++b) {
        chip.setPeCycles(b, pe);
        chip.age(b, hours, 25.0);
    }
    return chip;
}

/**
 * Bit errors of one read of a page's data region, counted cell by
 * cell from Chip::readBits (cellVth + std::lround) against
 * Chip::trueBits: an exact-read oracle independent of SenseKernel.
 */
inline std::uint64_t
exactPageErrors(const nand::Chip &chip, int block, int wl, int page,
                const std::vector<int> &voltages, std::uint64_t read_seq)
{
    const int cells = chip.geometry().dataBitlines;
    std::vector<std::uint8_t> read, truth;
    chip.readBits(block, wl, page, voltages, read_seq, 0, cells, read);
    chip.trueBits(block, wl, page, 0, cells, truth);
    std::uint64_t errors = 0;
    for (std::size_t i = 0; i < read.size(); ++i)
        errors += read[i] != truth[i];
    return errors;
}

} // namespace flash::test

#endif // SENTINELFLASH_TESTS_TEST_SUPPORT_HH
