/**
 * @file
 * Experiment drivers shared by the benchmark harnesses: run a read
 * policy across a block, and measure per-boundary voltage accuracy
 * of inference/calibration against the oracle.
 */

#ifndef SENTINELFLASH_CORE_EVALUATOR_HH
#define SENTINELFLASH_CORE_EVALUATOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/read_policy.hh"
#include "util/span_trace.hh"
#include "util/stats.hh"

namespace flash::core
{

/** Aggregate results of running one policy over a block. */
struct PolicyBlockStats
{
    util::RunningStats retries;   ///< per session
    util::RunningStats senseOps;  ///< per session
    util::RunningStats latencyUs; ///< per session
    std::vector<int> retriesPerWordline; ///< Fig 13 series
    /** Each sampled wordline's session, in wordline order. */
    std::vector<ReadSessionResult> sessionResults;
    int sessions = 0;
    int failures = 0; ///< sessions ending in read failure

    /**
     * Per-session counters and latency histograms ("read.*", see
     * core::recordSession). Filled in the sequential reduction, so
     * identical at every thread count.
     */
    util::MetricsRegistry metrics;
};

/**
 * Run @p policy on one page of every sampled wordline of a block.
 *
 * Sessions are independent (one ReadContext per wordline, noise
 * derived from @p read_stream and the wordline address), so they can
 * run on any number of threads: per-wordline results are computed in
 * parallel and reduced sequentially in wordline order, making the
 * returned statistics bit-identical at every thread count.
 *
 * @param page Page to read; -1 selects the MSB page (worst case).
 * @param wl_stride Sample every Nth wordline.
 * @param threads Worker threads (1 = serial).
 * @param read_stream Read-noise stream key (see nand::ReadClock).
 * @param spans Optional causal span sink: one "read_session" root per
 *        sampled wordline with "attempt" / "assist_read" /
 *        "calib_step" / "xfer" children on a virtual timeline laid
 *        end-to-end from the LatencyParams (sessions are emitted in
 *        wordline order; the root's dur_us is the same
 *        sessionLatencyUs value recordSession() accumulates, so the
 *        analyzer's critical-path totals match the metrics
 *        bit-exactly).
 */
PolicyBlockStats evaluateBlock(const nand::Chip &chip, int block,
                               const ReadPolicy &policy,
                               const ecc::EccModel &ecc_model,
                               const std::optional<nand::SentinelOverlay>
                                   &overlay,
                               const LatencyParams &latency, int page = -1,
                               int wl_stride = 1, int threads = 1,
                               std::uint64_t read_stream = 0,
                               util::SpanTrace *spans = nullptr);

/**
 * The paper's success rule: the error budget of one boundary. A found
 * voltage succeeds when the errors it produces are within 5% of the
 * optimal voltage's, where the 5% is taken of the larger of the
 * optimal errors and the wordline's error dynamic range (default
 * minus optimal), plus small slacks for counting and read-to-read
 * noise (see evaluator.cc).
 */
double successBudget(std::uint64_t err_optimal, std::uint64_t err_default);

/** Per-boundary accuracy record of one wordline. */
struct BoundaryAccuracy
{
    int offOptimal = 0;     ///< oracle offset
    int offInferred = 0;    ///< offset right after inference
    int offCalibrated = 0;  ///< offset after calibration
    std::uint64_t errDefault = 0;
    std::uint64_t errInferred = 0;
    std::uint64_t errCalibrated = 0;
    std::uint64_t errOptimal = 0;
    bool inferOk = false;   ///< inference success (successBudget)
    bool calibOk = false;   ///< success after calibration
};

/** Accuracy records of one wordline, indexed 1-based by boundary. */
struct WordlineAccuracy
{
    std::vector<BoundaryAccuracy> boundaries;
    double dRate = 0.0;
    int calibSteps = 0; ///< calibration steps taken (at most 5)
};

/** Options of the accuracy evaluation. */
struct AccuracyOptions
{
    CalibrationParams calibration;

    /** Read-noise stream key (see nand::ReadClock). */
    std::uint64_t readStream = 0;
};

/**
 * Measure inference/calibration accuracy on one wordline: infer from
 * the sentinel error difference, then run state-change calibration
 * steps while any boundary is still outside the success budget (the
 * offline counterpart of "calibrate while the read keeps failing"),
 * and grade each boundary against the oracle.
 */
WordlineAccuracy evaluateWordlineAccuracy(const nand::Chip &chip, int block,
                                          int wl,
                                          const Characterization &tables,
                                          const nand::SentinelOverlay
                                              &overlay,
                                          const AccuracyOptions &options
                                          = {});

/**
 * evaluateWordlineAccuracy() over every @p wl_stride -th wordline of
 * a block, optionally on several threads. Per-wordline noise derives
 * from options.readStream and the wordline address, so the result
 * vector (indexed by sample order) is bit-identical at every thread
 * count.
 */
std::vector<WordlineAccuracy>
evaluateBlockAccuracy(const nand::Chip &chip, int block,
                      const Characterization &tables,
                      const nand::SentinelOverlay &overlay,
                      const AccuracyOptions &options = {},
                      int wl_stride = 1, int threads = 1);

} // namespace flash::core

#endif // SENTINELFLASH_CORE_EVALUATOR_HH
