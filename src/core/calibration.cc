#include "core/calibration.hh"

#include "util/logging.hh"

namespace flash::core
{

CalibrationObservation
observeStateChange(const nand::WordlineSnapshot &data,
                   const nand::WordlineSnapshot &sent, int k, int v_default,
                   int v_infer)
{
    util::fatalIf(sent.cells() == 0 || data.cells() == 0,
                  "calibration: empty snapshot");

    CalibrationObservation obs;
    obs.nca = data.cellsInVthRange(v_default, v_infer);
    obs.ncs = sent.cellsInVthRange(v_default, v_infer);
    // Sentinels live entirely in states k-1 and k; scale them to the
    // data region's population of those two states.
    const double two_state_data =
        static_cast<double>(data.cellsInState(k - 1))
        + static_cast<double>(data.cellsInState(k));
    const double scale = two_state_data / static_cast<double>(sent.cells());
    obs.scaledNcs = static_cast<double>(obs.ncs) * scale;
    const double nca = static_cast<double>(obs.nca);
    obs.tuneFurther = nca > obs.scaledNcs;
    if (nca > obs.scaledNcs * (1.0 + kMatchTolerance))
        obs.decision = CalibrationCase::TuneFurther;
    else if (nca < obs.scaledNcs * (1.0 - kMatchTolerance))
        obs.decision = CalibrationCase::TuneBack;
    else
        obs.decision = CalibrationCase::Converged;
    return obs;
}

int
calibratedOffset(int current_offset, bool tune_further, double d_rate,
                 int delta)
{
    int dir;
    if (current_offset != 0)
        dir = current_offset > 0 ? 1 : -1;
    else
        dir = d_rate >= 0.0 ? 1 : -1;
    return current_offset + (tune_further ? dir : -dir) * delta;
}

} // namespace flash::core
