/**
 * @file
 * WordlineVthView: batched sensing of one wordline.
 *
 * Materializes the read-independent part of every cell's threshold
 * voltage (state draw, heavy tail, spatial gradient) plus the true
 * states with SenseKernel's chunk steps. Every subsequent sense of the
 * same wordline — any read voltage, any soft-sense shift — then only
 * adds the per-read noise term and compares, so a caller that senses
 * a wordline several times and needs per-cell bits (Chip::readPage,
 * ecc::softReadRange) hashes each cell's static part once. A single histogrammed sense needs no view: the
 * direct WordlineSnapshot constructor streams it.
 *
 * Sensed pages come out as packed bitplanes (util::Bitplane, one bit
 * per cell) and error counts are popcount kernels over uint64_t
 * words. Determinism contract: senseDac(read_seq) reproduces
 * Chip::cellVth() bit-exactly for the same read-sequence number, so
 * views compose with the caller-owned ReadSeq sequencing from
 * nandsim/read_seq.hh.
 */

#ifndef SENTINELFLASH_NANDSIM_VTH_VIEW_HH
#define SENTINELFLASH_NANDSIM_VTH_VIEW_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "nandsim/chip.hh"
#include "nandsim/sense_kernel.hh"
#include "util/bitplane.hh"

namespace flash::nand
{

/**
 * Batched static-Vth materialization of a column range of one
 * wordline. Lazily caches the packed true bits of each page; the
 * lazy cache makes const methods non-reentrant, so share a view
 * across threads only after warming it (or give each session its
 * own view, which is the intended use).
 */
class WordlineVthView
{
  public:
    /** Materialize columns [col_begin, col_end). */
    WordlineVthView(const Chip &chip, int block, int wl, int col_begin,
                    int col_end);

    /** View of the user-data region. */
    static WordlineVthView dataRegion(const Chip &chip, int block, int wl);

    /** View of the whole wordline (data + OOB). */
    static WordlineVthView fullWordline(const Chip &chip, int block, int wl);

    /** The chip this view was materialized from. */
    const Chip &chip() const { return *chip_; }

    int block() const { return block_; }
    int wordline() const { return wl_; }
    int colBegin() const { return colBegin_; }
    int colEnd() const { return colEnd_; }

    /** Number of cells in the view. */
    std::size_t cells() const { return states_.size(); }

    /** Distribution context the view was built under. */
    const WordlineContext &context() const { return kernel_.context(); }

    /** True state of cell @p i (0-based within the view). */
    std::uint8_t state(std::size_t i) const { return states_[i]; }

    /** Read-independent Vth of cell @p i (before read noise). */
    double staticVth(std::size_t i) const { return static_[i]; }

    /** Number of view cells whose true state is @p s. */
    std::uint64_t cellsInState(int s) const;

    /**
     * One sense of every cell: quantized DAC values of
     * staticVth + readNoise(read_seq), bit-exact with
     * Chip::cellVth() rounded the way Chip::readBits() rounds.
     */
    std::vector<int> senseDac(std::uint64_t read_seq) const;

    /**
     * Packed bits of page @p page as sensed with @p voltages
     * (1-based by boundary) given one sense's DAC values.
     */
    util::Bitplane packBits(int page, const std::vector<int> &voltages,
                            const std::vector<int> &dac) const;

    /** Packed true (programmed) bits of a page (lazily cached). */
    const util::Bitplane &truePageBits(int page) const;

    /**
     * Exact page read against the programmed data: one sense plus a
     * packed XOR/popcount error count. Identical results to
     * Chip::readPage() at a fraction of the hashing.
     */
    PageReadResult pageRead(int page, const std::vector<int> &voltages,
                            std::uint64_t read_seq) const;

    /** pageRead() reusing an already-materialized sense. */
    PageReadResult pageRead(int page, const std::vector<int> &voltages,
                            const std::vector<int> &dac) const;

  private:
    const Chip *chip_;
    int block_, wl_, colBegin_, colEnd_;
    SenseKernel kernel_;
    std::vector<double> static_;
    std::vector<std::uint8_t> states_;
    std::vector<std::uint64_t> stateCount_;
    mutable std::vector<std::optional<util::Bitplane>> trueBits_;
};

} // namespace flash::nand

#endif // SENTINELFLASH_NANDSIM_VTH_VIEW_HH
