/**
 * @file
 * Sentinel error-difference measurement (paper Fig 9).
 *
 * Because the sentinel pattern is known, a single sense at the
 * sentinel voltage yields exact up/down error counts; their
 * difference rate d tracks how far the two adjacent states have
 * drifted past the default voltage.
 */

#ifndef SENTINELFLASH_CORE_ERROR_DIFFERENCE_HH
#define SENTINELFLASH_CORE_ERROR_DIFFERENCE_HH

#include <cstdint>

#include "nandsim/chip.hh"
#include "nandsim/snapshot.hh"

namespace flash::core
{

/** Up/down errors observed on the sentinel cells. */
struct SentinelErrors
{
    std::uint64_t up = 0;    ///< low-state cells misread high
    std::uint64_t down = 0;  ///< high-state cells misread low
    std::uint64_t sentinels = 0;

    /** Signed error-difference rate d = (up - down) / sentinels. */
    double
    dRate() const
    {
        if (sentinels == 0)
            return 0.0;
        return (static_cast<double>(up) - static_cast<double>(down))
            / static_cast<double>(sentinels);
    }
};

/**
 * Snapshot just the sentinel columns of a wordline (a few hundred
 * cells; cheap).
 */
nand::WordlineSnapshot sentinelSnapshot(const nand::Chip &chip, int block,
                                        int wl,
                                        const nand::SentinelOverlay &overlay,
                                        std::uint64_t read_seq);

/**
 * Count sentinel up/down errors at @p voltage for boundary @p k
 * (the overlay's boundary).
 */
SentinelErrors countSentinelErrors(const nand::WordlineSnapshot &sent_snap,
                                   int k, int voltage);

} // namespace flash::core

#endif // SENTINELFLASH_CORE_ERROR_DIFFERENCE_HH
