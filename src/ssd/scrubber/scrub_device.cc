#include "ssd/scrubber/scrub_device.hh"

#include "core/sentinel_probe.hh"
#include "util/rng.hh"

namespace flash::ssd
{

ChipScrubDevice::ChipScrubDevice(const nand::Chip &chip,
                                 const core::Characterization &tables,
                                 const nand::SentinelOverlay &overlay,
                                 int chip_block, std::uint64_t read_stream)
    : chip_(&chip), engine_(tables, chip.model().defaultVoltages()),
      overlay_(overlay), chipBlock_(chip_block), clock_(read_stream)
{
}

ScrubProbe
ChipScrubDevice::probe(int plane, int block, std::uint64_t probe_seq)
{
    const int wordlines = chip_->geometry().wordlinesPerBlock();
    const int wl = static_cast<int>(
        util::hashWords({0x736372756277ULL, // "scrubw"
                         static_cast<std::uint64_t>(plane),
                         static_cast<std::uint64_t>(block)})
        % static_cast<std::uint64_t>(wordlines));

    // Decorrelate simulated blocks that map onto the same chip
    // wordline: the read number folds in (plane, block), so each
    // simulated block draws its own noise sequence.
    const std::uint64_t seq = clock_.session(chipBlock_, wl)
                                  .at(util::hashWords(
                                      {static_cast<std::uint64_t>(plane),
                                       static_cast<std::uint64_t>(block),
                                       probe_seq}));
    const core::SentinelProbe p =
        core::probeSentinel(*chip_, chipBlock_, wl, engine_, overlay_, seq);

    ScrubProbe out;
    out.rber = p.errorRate;
    out.sentinelOffset = p.sentinelOffset;
    out.epoch = core::epochOf(chip_->blockAge(chipBlock_));
    return out;
}

} // namespace flash::ssd
