/**
 * @file
 * Calibration of an inferred read voltage (paper III-C).
 *
 * When the read at the inferred voltages still fails, the controller
 * compares the number of state-changing cells between V_default and
 * V_infer across the sentinel boundary: NCa (all data cells) against
 * NCs / r (sentinel cells scaled by the reservation ratio). NCa
 * larger means the inferred offset undershot the optimum (case 1,
 * tune further in the same direction); smaller means it overshot
 * (case 2, tune back). Each calibration step moves the sentinel
 * offset by a small delta and re-derives the other voltages.
 */

#ifndef SENTINELFLASH_CORE_CALIBRATION_HH
#define SENTINELFLASH_CORE_CALIBRATION_HH

#include <cstdint>

#include "nandsim/snapshot.hh"

namespace flash::core
{

/** Calibration tuning parameters. */
struct CalibrationParams
{
    /** Step size delta in DAC units. */
    int delta = 2;
};

/**
 * Relative tolerance within which NCa and the scaled NCs are
 * considered matching (the "successful prediction" case of the
 * paper's Fig 12): no further tuning. Assumption: the paper gives no
 * value.
 */
inline constexpr double kMatchTolerance = 0.10;

/** Direction decided by one state-change comparison. */
enum class CalibrationCase {
    TuneFurther, ///< case 1: inferred offset undershot
    TuneBack,    ///< case 2: inferred offset overshot
    Converged,   ///< counts match: the sentinel estimate stands
};

/** Measured state-change counts behind one calibration decision. */
struct CalibrationObservation
{
    std::uint64_t nca = 0;      ///< data cells changing state
    std::uint64_t ncs = 0;      ///< sentinel cells changing state
    double scaledNcs = 0.0;     ///< NCs / r (all-cell equivalent)
    bool tuneFurther = false;   ///< case 1 (true) vs case 2 (false)
    CalibrationCase decision = CalibrationCase::Converged;
};

/**
 * Observe the state-change counts between two sentinel-boundary
 * voltages and decide the calibration direction.
 *
 * The sentinel cells are deliberately concentrated in the two states
 * adjacent to the sentinel boundary, so NCs is scaled by the ratio of
 * the data region's population of those two states to the sentinel
 * count (the density-aware form of the paper's NCs / r). The counts
 * match, and the decision is Converged, within kMatchTolerance.
 *
 * @param data Snapshot of the data region.
 * @param sent Snapshot of the sentinel cells.
 * @param k Sentinel boundary (1-based).
 * @param v_default Default sentinel voltage (absolute).
 * @param v_infer Currently inferred sentinel voltage (absolute).
 */
CalibrationObservation observeStateChange(const nand::WordlineSnapshot &data,
                                          const nand::WordlineSnapshot &sent,
                                          int k, int v_default, int v_infer);

/**
 * Next sentinel offset after one calibration step.
 *
 * @param current_offset Current inferred sentinel offset.
 * @param tune_further Decision from observeStateChange().
 * @param d_rate Error-difference rate (fixes the direction when the
 *        current offset is 0).
 * @param delta Step size.
 */
int calibratedOffset(int current_offset, bool tune_further, double d_rate,
                     int delta);

} // namespace flash::core

#endif // SENTINELFLASH_CORE_CALIBRATION_HH
