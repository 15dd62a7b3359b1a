/**
 * @file
 * Soft sensing: build per-bit LLRs from multiple sense operations.
 *
 * Hard decoding uses a single sense per read voltage; 2-bit soft uses
 * 3 senses (at -delta, 0, +delta around each threshold) and 3-bit
 * soft uses 7. A bit's confidence is how many senses agree with the
 * center sense, which measures how far the cell's Vth sits from the
 * threshold — the information soft LDPC decoding feeds on.
 *
 * The senses run on nand::SenseKernel's chunk steps: each cell's
 * static Vth is computed once, and every sense only adds its own read
 * noise and compares. Chip::readBits at the same voltages and read
 * sequences is the per-cell reference (tests/test_soft_sensing.cc).
 */

#ifndef SENTINELFLASH_ECC_SOFT_SENSING_HH
#define SENTINELFLASH_ECC_SOFT_SENSING_HH

#include <cstdint>
#include <vector>

#include "nandsim/chip.hh"

namespace flash::ecc
{

/** Sensing precision for LDPC decoding. */
enum class SensingMode { Hard, Soft2Bit, Soft3Bit };

/** Human-readable mode name. */
const char *sensingModeName(SensingMode mode);

/** Number of sense operations per read voltage for a mode. */
int senseOps(SensingMode mode);

/** Result of a soft read of a column range. */
struct SoftReadResult
{
    /** Hard-decision bits (center sense). */
    std::vector<std::uint8_t> hardBits;

    /**
     * Per-bit LLRs: positive means bit 0 more likely, magnitude from
     * the agreement-count confidence bin.
     */
    std::vector<float> llr;
};

/**
 * Soft-read columns [col_begin, col_end) of a page.
 *
 * @param voltages Read voltages indexed by boundary (1-based).
 * @param mode Sensing precision.
 * @param delta_dac Spacing of the extra senses in DAC units.
 * @param read_seq_base The center sense uses read_seq_base and the
 *        shifted senses (-half..-1, +1..+half steps of delta_dac)
 *        read_seq_base + 1.., so every sense op draws fresh noise.
 * @throws util::FatalError on a column range outside the wordline, a
 *         page out of range or a voltage vector shorter than states().
 */
SoftReadResult softReadRange(const nand::Chip &chip, int block, int wl,
                             int page, const std::vector<int> &voltages,
                             SensingMode mode, double delta_dac,
                             std::uint64_t read_seq_base, int col_begin,
                             int col_end);

} // namespace flash::ecc

#endif // SENTINELFLASH_ECC_SOFT_SENSING_HH
