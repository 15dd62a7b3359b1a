/**
 * @file
 * SenseKernel: the chunked, bit-exact sensing kernel of one wordline.
 *
 * The simulator's one sensing path: every snapshot and soft read
 * senses its cells here, kChunk columns at a time: true states,
 * static-Vth hashes, Gaussians, per-read noise, rounding to the DAC
 * grid and binning, each step one tight loop over a chunk held on the
 * stack. WordlineSnapshot calls senseAges(), which runs every step
 * and bins, for one block age or several: a chunk's true
 * states, static-Vth hashes, their Gaussians and tail gates and the
 * gradient term do not depend on the age, so they are computed once
 * and each age then applies only its own means and sigmas, its
 * read's noise and the rounding. ecc::softReadRange calls states()
 * and staticVth() once per chunk, then addReadNoise() and roundDac()
 * once per sense. No per-cell array outlives a chunk. Chip::cellVth() (rounded with
 * std::lround) stays the per-cell reference: the kernel performs the
 * same IEEE operations in the same order, so its DAC values are
 * bit-identical (tests/test_sense_kernel.cc pins this).
 *
 * The steps are compiled once per x86-64 level (util/cpu_level.hh)
 * from one always-inline body; a kernel runs the level the CPU
 * supports best unless a caller (a test, the microbenchmark) names
 * another. Every level produces the same bits.
 */

#ifndef SENTINELFLASH_NANDSIM_SENSE_KERNEL_HH
#define SENTINELFLASH_NANDSIM_SENSE_KERNEL_HH

#include <algorithm>
#include <cstdint>
#include <span>

#include "nandsim/chip.hh"
#include "util/cpu_level.hh"

namespace flash::nand
{

/**
 * Round half away from zero to an int: std::lround for every finite
 * @p x whose integer part fits an int, without the libm call. The
 * truncation is exact and so is x - trunc(x), hence the comparison
 * of the fractional part against +-0.5 is too (unlike
 * floor(x + 0.5), which rounds 0.49999999999999994 up).
 */
FLASH_ALWAYS_INLINE int
roundDac(double x)
{
    const int t = static_cast<int>(x);
    const double frac = x - static_cast<double>(t);
    return t + (frac >= 0.5) - (frac <= -0.5);
}

/**
 * Flat per-state DAC counters a sense adds into: state s, DAC value d
 * (clamped into [lo, hi]) is counts[s * (hi - lo + 1) + d - lo].
 * [minDac, maxDac] is the clamped DAC window the senses touched so
 * far (empty while minDac > maxDac).
 */
struct DacBins
{
    std::uint32_t *counts;
    int lo, hi;
    int minDac, maxDac;
};

/**
 * One read of a multi-age sense: the block age it senses under, as
 * the wordline's Chip::wordlineContext(block, wl, age), the read's
 * sequence number and the counters its cells go to.
 */
struct AgedSense
{
    const WordlineContext *context;
    std::uint64_t readSeq;
    DacBins bins;
};

struct SenseSteps;   // one compiled CPU level (sense_kernel.cc)
struct SenseBodies;  // the steps' shared bodies (sense_kernel.cc)

/**
 * Chunked sensing of one wordline under its current age. Holds the
 * wordline's distribution context and hash prefixes; the chip must
 * outlive the kernel and keep the wordline's content.
 */
class SenseKernel
{
  public:
    /** Columns per chunk: the stack buffers of one pipeline pass. */
    static constexpr int kChunk = 256;

    /** Kernel at @p level, which this CPU must support. */
    SenseKernel(const Chip &chip, int block, int wl,
                util::CpuLevel level = util::selectedCpuLevel());

    /** The sensed chip. */
    const Chip &chip() const { return *chip_; }

    /** Distribution context of the wordline under its current age. */
    const WordlineContext &context() const { return ctx_; }

    /** The sensed block and wordline. */
    int block() const { return block_; }
    int wordline() const { return wl_; }

    /** Call fn(col, n) for consecutive chunks covering [begin, end). */
    template <typename Fn>
    static void
    forEachChunk(int col_begin, int col_end, Fn &&fn)
    {
        for (int col = col_begin; col < col_end; col += kChunk)
            fn(col, std::min(kChunk, col_end - col));
    }

    /** True states of columns [col, col + n), n <= kChunk. */
    void states(int col, int n, std::uint8_t *out) const;

    /**
     * Static Vth (Chip::staticCellVth) of columns [col, col + n) in
     * the given true states, n <= kChunk.
     */
    void staticVth(int col, int n, const std::uint8_t *states,
                   double *out) const;

    /**
     * Add one read's noise (Chip::readNoise) to vth[0, n) of columns
     * [col, col + n) in place, n <= kChunk; a no-op when the model
     * has no read noise, as in Chip::cellVth.
     */
    void addReadNoise(int col, int n, std::uint64_t read_seq,
                      double *vth) const;

    /**
     * One sense of columns [col_begin, col_end) per entry of
     * @p senses, in one pass over the columns: add each cell to the
     * entry's bins at (true state, roundDac(vth) clamped into
     * [bins.lo, bins.hi]), with vth sensed at the entry's age and
     * read seq, and widen the bins' touched window. The counters must
     * hold geometry().states() rows. The age-independent terms of
     * each chunk are computed once for all entries; a one-age sense
     * is the one-entry case. Every context must be one of this
     * wordline.
     */
    void senseAges(int col_begin, int col_end,
                   std::span<AgedSense> senses) const;

  private:
    friend struct SenseBodies;

    /** panic() unless [col, col + n) is a chunk of the wordline. */
    void checkChunk(int col, int n) const;

    const Chip *chip_;
    const WordlineContent *content_;
    WordlineContext ctx_;
    int block_, wl_;
    const SenseSteps *steps_;      ///< the level's compiled steps
    std::uint64_t stateMask_;      ///< states - 1: h % 2^bits == h & mask
    int bitlines_;
    double lastCol_;               ///< bitlines - 1 (gradient scale)
    std::uint64_t dataState_;      ///< fastHashState(dataSeed)
    std::uint64_t staticState_;    ///< static-Vth hash prefix
    std::uint64_t noiseKey_;       ///< read-noise hash key
};

} // namespace flash::nand

#endif // SENTINELFLASH_NANDSIM_SENSE_KERNEL_HH
