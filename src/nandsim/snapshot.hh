/**
 * @file
 * WordlineSnapshot: one sensing pass over a wordline, binned into
 * per-true-state Vth counts.
 *
 * Every question the read policies and the oracle ask — up/down
 * errors of a boundary at any threshold, exact page error counts for
 * any voltage set, state-change counts between two voltage sets — is
 * then a prefix-sum lookup instead of another pass over the cells.
 * A snapshot embeds one draw of per-read sensing noise; building a
 * new snapshot with a different read sequence redraws it.
 *
 * Layout: the sense bins into per-thread scratch that covers the
 * model's whole DAC range [vthMin, vthMax] (one such bin set per read
 * of a multi-age sweep, senseAges()); the snapshot then keeps,
 * per state, only the window of DAC values its cells actually fell
 * in, as one flat array of inclusive prefix sums built eagerly, and
 * clears the touched scratch for the next sense. A count query below
 * a state's window is 0 and one at or above it is the state's total,
 * exactly what full-range per-state counts over [vthMin, vthMax]
 * answer. Exact page error counts equal a cell-by-cell
 * Chip::readBits read at the same read sequence, which the tests use
 * as their independent oracle.
 */

#ifndef SENTINELFLASH_NANDSIM_SNAPSHOT_HH
#define SENTINELFLASH_NANDSIM_SNAPSHOT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "nandsim/chip.hh"
#include "nandsim/sense_kernel.hh"

namespace flash::nand
{

/**
 * Binned sensing pass over a column range of one wordline.
 */
class WordlineSnapshot
{
  public:
    /**
     * Sense columns [col_begin, col_end) of the wordline with the
     * given read-sequence number and bin them, in one streaming
     * SenseKernel pass (no per-cell arrays).
     */
    WordlineSnapshot(const Chip &chip, int block, int wl,
                     std::uint64_t read_seq, int col_begin, int col_end);

    /** The same sense through @p kernel (and its CPU level). */
    WordlineSnapshot(const SenseKernel &kernel, std::uint64_t read_seq,
                     int col_begin, int col_end);

    /** One read of a multi-age sweep. */
    struct AgedRead
    {
        BlockAge age;                ///< the block age it senses under
        std::uint64_t readSeq = 0;   ///< its read-sequence number
    };

    /**
     * Byte bound of one thread's binning scratch in a multi-age
     * sweep, 2 MiB: 15 paper-TLC bin sets (8 states x 4 301 DAC
     * values x 4 B = 134 KiB each) or 7 QLC ones. senseAges() splits
     * longer sweeps into equal groups that fit (DESIGN.md section 11).
     */
    static constexpr std::size_t kSweepScratchBytes = std::size_t{2} << 20;

    /**
     * One snapshot per entry of @p reads of columns [col_begin,
     * col_end) of @p kernel's wordline: entry i equals the snapshot
     * sensed with reads[i].readSeq after Chip::setBlockAge(block,
     * reads[i].age). Each group of reads whose bin sets fit
     * kSweepScratchBytes is one SenseKernel::senseAges pass, so the
     * cells' age-independent terms are drawn once per group, not once
     * per read.
     */
    static std::vector<WordlineSnapshot>
    senseAges(const SenseKernel &kernel, std::span<const AgedRead> reads,
              int col_begin, int col_end);

    /** Snapshot of the user-data region only. */
    static WordlineSnapshot dataRegion(const Chip &chip, int block, int wl,
                                       std::uint64_t read_seq);

    /** Snapshot of the whole wordline (data + OOB). */
    static WordlineSnapshot fullWordline(const Chip &chip, int block,
                                         int wl, std::uint64_t read_seq);

    /** Number of cells captured. */
    std::uint64_t cells() const { return cells_; }

    /** Number of captured cells whose true state is @p s. */
    std::uint64_t cellsInState(int s) const;

    /**
     * Up errors of boundary @p k at threshold @p v: cells truly in
     * state k-1 sensed above v (misread upward). Paper Fig 9.
     */
    std::uint64_t upErrors(int k, int v) const;

    /**
     * Down errors of boundary @p k at threshold @p v: cells truly in
     * state k sensed at or below v (misread downward).
     */
    std::uint64_t downErrors(int k, int v) const;

    /** Up + down errors of a boundary at a threshold. */
    std::uint64_t boundaryErrors(int k, int v) const
    {
        return upErrors(k, v) + downErrors(k, v);
    }

    /**
     * Exact misread-bit count of a page when read with the given
     * voltage set (indexed by boundary, 1-based; only the page's
     * boundaries are consulted). Counts every cell whose sensed
     * region maps to the wrong bit, including multi-state shifts.
     */
    std::uint64_t pageErrors(int page, const std::vector<int> &voltages) const;

    /** pageErrors() normalized by the number of cells. */
    double pageRber(int page, const std::vector<int> &voltages) const;

    /** Cells (any state) sensed with Vth in (lo, hi]. */
    std::uint64_t cellsInVthRange(int lo, int hi) const;

    /** Cells truly in state @p s sensed with Vth in (lo, hi]. */
    std::uint64_t stateCellsInRange(int s, int lo, int hi) const;

    /** Gray code of the captured chip. */
    const GrayCode &grayCode() const { return *code_; }

    /** Number of states. */
    int states() const { return states_; }

    /** Bytes the snapshot holds: the object and its prefix array. */
    std::size_t
    bytes() const
    {
        return sizeof(*this) + prefix_.capacity() * sizeof(std::uint32_t);
    }

    /** Same chip, same cells and the same count at every DAC value. */
    bool operator==(const WordlineSnapshot &other) const = default;

  private:
    static constexpr int kMaxStates = 16; ///< QLC

    /// The prefix array's capacity is a multiple of this (4 KiB).
    static constexpr std::size_t kCapacityStep = 1024;

    /**
     * One state's observed window [lo, hi]: prefix_[offset + v - lo]
     * counts its cells sensed at or below v, for v in [lo, hi).
     */
    struct StateWindow
    {
        int lo = 0, hi = -1;
        std::uint32_t offset = 0;
        std::uint32_t total = 0;

        bool operator==(const StateWindow &) const = default;
    };

    /** An empty snapshot of @p chip, for sweep() to fill. */
    explicit WordlineSnapshot(const Chip &chip);

    /**
     * Sense columns [col_begin, col_end) once per entry of @p senses
     * (their bins are assigned here, in this thread's scratch) and
     * compact entry i into out[i].
     */
    static void sweep(const SenseKernel &kernel, std::span<AgedSense> senses,
                      int col_begin, int col_end, WordlineSnapshot *out);

    /** Take the windows and prefix sums of @p bins' filled counters. */
    void compact(const DacBins &bins, std::uint64_t cells);

    /** Cells of state @p s sensed at or below DAC value @p v. */
    std::uint64_t
    countAtOrBelow(int s, int v) const
    {
        const StateWindow &w = windows_[static_cast<std::size_t>(s)];
        if (v < w.lo)
            return 0;
        if (v >= w.hi)
            return w.total;
        return prefix_[w.offset + static_cast<std::uint32_t>(v - w.lo)];
    }

    const GrayCode *code_;
    int states_;
    std::uint64_t cells_ = 0;
    std::array<StateWindow, kMaxStates> windows_{};
    std::vector<std::uint32_t> prefix_; // every state's window, in order
};

} // namespace flash::nand

#endif // SENTINELFLASH_NANDSIM_SNAPSHOT_HH
