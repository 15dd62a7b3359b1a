/**
 * @file
 * A simulated 3D NAND chip: content, aging and sensing.
 *
 * By default every wordline is "programmed" with procedural random
 * data (a pure hash of its address), which is exactly what the
 * characterization experiments need and costs no per-cell storage.
 * Explicit per-cell states can be programmed for ECC/FTL paths, and a
 * sentinel overlay programs a contiguous OOB-tail range half/half to
 * the two states around the sentinel voltage.
 */

#ifndef SENTINELFLASH_NANDSIM_CHIP_HH
#define SENTINELFLASH_NANDSIM_CHIP_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "nandsim/geometry.hh"
#include "nandsim/gray_code.hh"
#include "nandsim/voltage_model.hh"

namespace flash::nand
{

/**
 * Sentinel overlay of one wordline: @p count cells starting at
 * absolute column @p start alternate between @p lowState and
 * @p highState (even split, known pattern).
 */
struct SentinelOverlay
{
    int start = 0;
    int count = 0;
    std::uint8_t lowState = 0;
    std::uint8_t highState = 0;

    /** True state of sentinel cell index i (0-based within overlay). */
    std::uint8_t stateOf(int i) const
    {
        return (i & 1) ? highState : lowState;
    }

    /** Whether absolute column @p col falls inside the overlay. */
    bool contains(int col) const
    {
        return col >= start && col < start + count;
    }
};

/** Content of one wordline. */
struct WordlineContent
{
    /** Seed of the procedural random data pattern. */
    std::uint64_t dataSeed = 0;

    /** Optional sentinel overlay in the OOB tail. */
    std::optional<SentinelOverlay> sentinels;

    /**
     * Optional explicit per-cell states (size = bitlines). When
     * non-empty it overrides the procedural pattern (but not the
     * sentinel overlay).
     */
    std::vector<std::uint8_t> explicitStates;
};

/**
 * Distribution context of one wordline: per-state aged means/sigmas
 * plus the spatial gradient. Computing this once per wordline keeps
 * the per-cell sensing loop cheap.
 */
struct WordlineContext
{
    std::vector<double> mean;       ///< [state], main population
    std::vector<double> sigma;      ///< [state], main population
    std::vector<double> tailMean;   ///< [state], heavy-tail population
    std::vector<double> tailSigma;  ///< [state], heavy-tail population
    std::uint32_t tailThresh = 0;   ///< tail gate on 11 hash bits
    double gradient = 0.0;          ///< DAC from first to last bitline
    double readNoiseSigma = 0.0;

    bool operator==(const WordlineContext &) const = default;
};

class WordlineSnapshot;

/**
 * One simulated chip. Every sensing entry point is const and derives
 * all noise from pure hashes of (seed, address, read_seq), so a sense
 * is a pure function of the chip's programmed and aged state and its
 * arguments, and concurrent sensing from any number of threads is
 * safe and reproducible. Read-sequence numbers are caller-owned (see
 * nandsim/read_seq.hh); mutation (aging/programming) is not
 * thread-safe.
 *
 * The chip caches one kind of result: memoSnapshot() keeps recently
 * sensed snapshots in a bounded, thread-safe LRU memo, so read
 * policies that replay the same read stream share one sense per
 * (block, wordline, read_seq, column range). Every mutator bumps the
 * block's generation, which is part of the memo key, and drops the
 * block's entries; a memo hit is therefore always the snapshot a
 * fresh sense would build.
 */
class Chip
{
  public:
    /// Keys xored into the chip seed for the per-cell static-Vth and
    /// read-noise hashes (shared with SenseKernel).
    static constexpr std::uint64_t kStaticVthSalt = 0x63656c6c5a7a0002ULL;
    static constexpr std::uint64_t kReadNoiseSalt = 0x72646e6f69730003ULL;

    /**
     * Build a chip. All blocks start programmed with procedural
     * random data, zero P/E cycles and zero retention.
     */
    Chip(const ChipGeometry &geometry, const VoltageModelParams &params,
         std::uint64_t seed);

    ~Chip();

    /** Takes @p other's state; the memo starts empty. */
    Chip(Chip &&other) noexcept;

    /**
     * Byte bound of the snapshot memo, 832 KiB: one block's stride-8
     * policy sweep of a paper-scale TLC chip, 32 wordlines x (a 20 KiB
     * data snapshot + a 4 KiB sentinel snapshot, each plus ~0.3 KiB)
     * ~ 787 KiB, and two wordlines of slack (DESIGN.md section 11).
     */
    static constexpr std::size_t kSenseMemoBytes = std::size_t{832} << 10;

    /** Chip geometry. */
    const ChipGeometry &geometry() const { return geom_; }

    /** Vth model. */
    const VoltageModel &model() const { return model_; }

    /** Gray code in use. */
    const GrayCode &grayCode() const { return code_; }

    /** Chip seed (procedural noise key). */
    std::uint64_t seed() const { return seed_; }

    /// @name Aging
    /// @{

    /** Set the endured P/E cycle count of a block. */
    void setPeCycles(int block, std::uint32_t pe);

    /**
     * Let a block sit for @p hours at @p tempC. Retention is
     * Arrhenius-accelerated into room-equivalent hours; the block's
     * retention temperature is updated as an effective-hours-weighted
     * mean. fatal() on negative or non-finite hours, a non-finite
     * temperature or one at or below absolute zero, or effective
     * hours that overflow; the block is then left as it was.
     */
    void age(int block, double hours, double tempC = 25.0);

    /** Clear retention and read disturb (a fresh program). */
    void refresh(int block);

    /** Record @p n reads against a block (read disturb). */
    void recordReads(int block, std::uint64_t n);

    /** Aging state of a block. */
    const BlockAge &blockAge(int block) const;

    /** Replace a block's aging state (e.g. restore a saved one). */
    void setBlockAge(int block, const BlockAge &age);

    /// @}
    /// @name Content
    /// @{

    /** Re-program one wordline. */
    void programWordline(int block, int wl, WordlineContent content);

    /**
     * Program every wordline of a block with procedural random data
     * derived from @p data_seed, optionally with a sentinel overlay
     * (the same overlay geometry on every wordline).
     */
    void programBlock(int block, std::uint64_t data_seed,
                      const std::optional<SentinelOverlay> &overlay
                      = std::nullopt);

    /** Content descriptor of a wordline. */
    const WordlineContent &content(int block, int wl) const;

    /** True programmed state of a cell. */
    std::uint8_t trueState(int block, int wl, int col) const;

    /// @}
    /// @name Sensing
    /// @{

    /** Distribution context of a wordline under its current age. */
    WordlineContext wordlineContext(int block, int wl) const;

    /**
     * Distribution context of a wordline were its block at @p age:
     * equal to wordlineContext(block, wl) after setBlockAge(block,
     * age). Only mean, sigma, tailMean and tailSigma depend on the
     * age; a multi-age sense (SenseKernel::senseAges) shares the rest.
     */
    WordlineContext wordlineContext(int block, int wl,
                                    const BlockAge &age) const;

    /**
     * Sense one cell's threshold voltage. @p read_seq distinguishes
     * reads: the same sequence number reproduces the same sensing
     * noise, a different one redraws it.
     */
    double senseVth(int block, int wl, int col, std::uint64_t read_seq) const;

    /** Cell's static Vth given a precomputed context (fast path). */
    double cellVth(const WordlineContext &ctx, int block, int wl, int col,
                   int state, std::uint64_t read_seq) const;

    /**
     * Read-independent part of cellVth(): the state draw, heavy-tail
     * selection and spatial gradient, without the per-read noise.
     * cellVth() == staticCellVth() + readNoise() exactly. cellVth()
     * is the per-cell reference of SenseKernel.
     */
    double staticCellVth(const WordlineContext &ctx, int block, int wl,
                         int col, int state) const;

    /** Per-read noise term of cellVth() (0 when the model has none). */
    double readNoise(const WordlineContext &ctx, int block, int wl, int col,
                     std::uint64_t read_seq) const;

    /**
     * Read raw bits of a column range of a page into @p bits_out
     * (one byte per bit), cell by cell through cellVth() and
     * std::lround: the per-cell reference the kernel's page reads
     * and soft reads are tested against. @p voltages is indexed by
     * boundary, 1-based; only the page's boundaries are consulted.
     */
    void readBits(int block, int wl, int page,
                  const std::vector<int> &voltages, std::uint64_t read_seq,
                  int col_begin, int col_end,
                  std::vector<std::uint8_t> &bits_out) const;

    /** True (programmed) bits of a column range of a page. */
    void trueBits(int block, int wl, int page, int col_begin, int col_end,
                  std::vector<std::uint8_t> &bits_out) const;

    /**
     * Snapshot of columns [col_begin, col_end) of a wordline at
     * @p read_seq, served from the memo when the same read was sensed
     * since the block's last mutation, else sensed and memoized.
     * Equal to WordlineSnapshot(*this, block, wl, read_seq,
     * col_begin, col_end). Thread-safe against other const calls.
     */
    std::shared_ptr<const WordlineSnapshot>
    memoSnapshot(int block, int wl, std::uint64_t read_seq, int col_begin,
                 int col_end) const;

    /** Bytes of snapshots the memo holds (at most kSenseMemoBytes). */
    std::size_t senseMemoBytes() const;

    /// @}

  private:
    class SenseMemo;

    void checkAddress(int block, int wl) const;

    /** Invalidate a block's memoized senses (every mutator calls it). */
    void touch(int block);

    ChipGeometry geom_;
    VoltageModel model_;
    GrayCode code_;
    std::uint64_t seed_;

    std::vector<BlockAge> ages_;
    std::vector<std::vector<WordlineContent>> content_;
    std::vector<std::uint64_t> generation_; ///< [block], bumped by touch()
    std::unique_ptr<SenseMemo> memo_;
};

} // namespace flash::nand

#endif // SENTINELFLASH_NANDSIM_CHIP_HH
