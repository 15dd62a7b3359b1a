/**
 * @file
 * Device-state source for the background scrubber.
 *
 * The scrubber decides *when* to probe and *what* to do with the
 * result; a ScrubDevice answers what one sentinel-only probe read of
 * a simulated (plane, block) would observe. The production-shaped
 * implementation, ChipScrubDevice, maps every simulated block onto
 * the aged block of the nandsim chip model that the run's empirical
 * read-cost distribution was measured on — the same device state the
 * foreground read costs came from — with a per-block deterministic
 * wordline choice and a dedicated read-noise stream, so probe results
 * never perturb (and are never perturbed by) foreground read noise.
 */

#ifndef SENTINELFLASH_SSD_SCRUBBER_SCRUB_DEVICE_HH
#define SENTINELFLASH_SSD_SCRUBBER_SCRUB_DEVICE_HH

#include <cstdint>

#include "core/characterization.hh"
#include "core/inference.hh"
#include "core/voltage_cache.hh"
#include "nandsim/chip.hh"
#include "nandsim/read_seq.hh"

namespace flash::ssd
{

/** What one background probe of a simulated block observed. */
struct ScrubProbe
{
    /** Sentinel-region bit-error rate (cheap RBER estimate). */
    double rber = 0.0;

    /** Inferred sentinel offset. */
    int sentinelOffset = 0;

    /** Aging epoch the probe observed (keys the model's observation). */
    core::BlockEpoch epoch;
};

/** Answers sentinel-only probe reads of simulated blocks. */
class ScrubDevice
{
  public:
    virtual ~ScrubDevice() = default;

    /**
     * Probe simulated block (plane, block). @p probe_seq is the
     * per-block probe counter: re-probing with a new sequence number
     * redraws the sensing noise, re-probing with the same one
     * reproduces it — the scrubber passes 0, 1, 2, ... so schedules
     * replay bit-identically.
     */
    virtual ScrubProbe probe(int plane, int block,
                             std::uint64_t probe_seq) = 0;
};

/**
 * ScrubDevice over one aged block of the chip model (see the file
 * comment). Each simulated block probes a deterministic wordline of
 * the chip block, hashed from (plane, block), so neighbouring
 * simulated blocks sample different layers of the 3D stack.
 */
class ChipScrubDevice : public ScrubDevice
{
  public:
    /**
     * @param chip Programmed and aged chip model; must outlive this.
     * @param tables Factory characterization (enables inference).
     * @param overlay Sentinel layout of @p chip_block.
     * @param chip_block Chip block all simulated blocks map onto.
     * @param read_stream Probe noise stream; keep distinct from
     *        foreground/health streams of the same experiment.
     */
    ChipScrubDevice(const nand::Chip &chip,
                    const core::Characterization &tables,
                    const nand::SentinelOverlay &overlay, int chip_block,
                    std::uint64_t read_stream = kDefaultStream);

    ScrubProbe probe(int plane, int block, std::uint64_t probe_seq) override;

  private:
    static constexpr std::uint64_t kDefaultStream = 0x73637275U; // "scru"

    const nand::Chip *chip_;
    core::InferenceEngine engine_;
    nand::SentinelOverlay overlay_;
    int chipBlock_;
    nand::ReadClock clock_;
};

} // namespace flash::ssd

#endif // SENTINELFLASH_SSD_SCRUBBER_SCRUB_DEVICE_HH
