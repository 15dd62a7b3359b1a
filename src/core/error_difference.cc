#include "core/error_difference.hh"

#include "util/logging.hh"

namespace flash::core
{

nand::WordlineSnapshot
sentinelSnapshot(const nand::Chip &chip, int block, int wl,
                 const nand::SentinelOverlay &overlay,
                 std::uint64_t read_seq)
{
    util::fatalIf(overlay.count <= 0, "sentinelSnapshot: empty overlay");
    return nand::WordlineSnapshot(chip, block, wl, read_seq, overlay.start,
                                  overlay.start + overlay.count);
}

SentinelErrors
countSentinelErrors(const nand::WordlineSnapshot &sent_snap, int k,
                    int voltage)
{
    SentinelErrors e;
    e.up = sent_snap.upErrors(k, voltage);
    e.down = sent_snap.downErrors(k, voltage);
    e.sentinels = sent_snap.cells();
    return e;
}

} // namespace flash::core
