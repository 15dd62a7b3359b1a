/**
 * @file
 * Factory characterization (paper III-B and III-D).
 *
 * At manufacturing time, one or a few chips of a batch are swept over
 * P/E-cycle and retention conditions to fit (a) the degree-5
 * polynomial mapping the sentinel error-difference rate d to the
 * optimal sentinel-voltage offset, and (b) the per-boundary linear
 * correlation between the optimal sentinel offset and every other
 * boundary's optimal offset. The fits are then programmed into all
 * chips of the batch; one correlation table is kept per temperature
 * band because temperature tilts the retention-sensitivity profile.
 */

#ifndef SENTINELFLASH_CORE_CHARACTERIZATION_HH
#define SENTINELFLASH_CORE_CHARACTERIZATION_HH

#include <cstdint>
#include <vector>

#include "core/sentinel_layout.hh"
#include "nandsim/chip.hh"
#include "util/linear_fit.hh"
#include "util/polyfit.hh"

namespace flash::core
{

/** One aging condition of the characterization sweep. */
struct CharCondition
{
    std::uint32_t peCycles = 0;
    double effRetentionHours = 0.0; ///< room-equivalent hours
};

/** Characterization sweep options. */
struct CharOptions
{
    SentinelConfig sentinel;

    /** Aging grid; empty selects a representative default grid. */
    std::vector<CharCondition> conditions;

    /** Sample every Nth wordline of the block. */
    int wordlineStride = 8;

    /**
     * Worker threads of the wordline sweep, which senses each sampled
     * wordline at every condition in one pass. The chip is only read
     * inside the sweep, each wordline's sensing noise derives from
     * (FactoryCharacterizer::kReadStream, condition, wordline), and
     * the samples are reduced in condition-major, wordline order, so
     * the fitted tables are bit-identical at every thread count.
     */
    int threads = 1;
};

/** The tables programmed into every chip of the batch. */
struct Characterization
{
    int sentinelBoundary = 0;

    /** d rate -> optimal sentinel-voltage offset. */
    util::Polynomial dToVopt;

    /**
     * Per-boundary linear maps from the optimal sentinel offset to
     * the boundary's optimal offset (1-based; entry at the sentinel
     * boundary is the identity).
     */
    std::vector<util::LinearFit> crossVoltage;

    /** RMSE of the polynomial fit (DAC units). */
    double dFitRmse = 0.0;

    /** Temperature band this table was characterized for (deg C). */
    double tempBandC = 25.0;

    /** Samples used. */
    std::size_t samples = 0;

    /** Raw fit samples, kept for the Fig 8 / Fig 10 harnesses. */
    std::vector<double> dSamples;
    std::vector<double> voptSamples;
};

/**
 * Put @p block at aging condition @p cond through the chip's own
 * mutators (P/E count, refresh, then retention at @p temp_band_c
 * long enough to reach the condition's room-equivalent hours) and
 * return the block's resulting age. fatal(), leaving the chip as it
 * was, unless the band is a temperature above absolute zero and the
 * hours it needs are finite.
 */
nand::BlockAge applyCondition(nand::Chip &chip, int block,
                              const CharCondition &cond,
                              double temp_band_c);

/**
 * Runs the factory sweep on a chip. The sweep mutates block kBlock's
 * age and content (it is a factory process); the block age is
 * restored afterwards, the sentinel overlay stays programmed. The
 * conditions and band temperatures are checked before the chip is
 * touched.
 */
class FactoryCharacterizer
{
  public:
    /** Degree of the d -> Vopt polynomial (the paper's 5, PAPER.md). */
    static constexpr int kPolyDegree = 5;

    /** Block the sweep programs and ages. */
    static constexpr int kBlock = 0;

    /** Read-noise stream key of the sweep (see nand::ReadClock). */
    static constexpr std::uint64_t kReadStream = 0xFAC7;

    /**
     * fatal() on a stride or thread count below 1, or on a condition
     * whose retention hours are negative or not finite.
     */
    explicit FactoryCharacterizer(CharOptions options);

    /** Characterize one temperature band: runBands() of one band. */
    Characterization run(nand::Chip &chip, double temp_band_c = 25.0) const;

    /**
     * Characterize several bands (paper III-D keeps one table each).
     * Every band reprograms the same content, so one pass per
     * wordline senses every band's conditions; entry b equals
     * run(chip, band_temps[b]).
     */
    std::vector<Characterization>
    runBands(nand::Chip &chip, const std::vector<double> &band_temps) const;

    /** Options in use. */
    const CharOptions &options() const { return options_; }

  private:
    CharOptions options_;
};

/**
 * Pick the characterization table whose temperature band is closest
 * to the block's retention temperature.
 */
const Characterization &
selectBand(const std::vector<Characterization> &bands, double ret_temp_c);

} // namespace flash::core

#endif // SENTINELFLASH_CORE_CHARACTERIZATION_HH
