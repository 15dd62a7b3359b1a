#include "core/evaluator.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/error_difference.hh"
#include "nandsim/oracle.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace flash::core
{

namespace
{

/**
 * Success-rule slacks (see successBudget). The 5% slacks are the
 * paper's "RBER within 5% of the optimal's" (DESIGN.md section 5).
 * The absolute and read-noise slacks are assumptions: the paper notes
 * two reads at one voltage give different RBERs.
 */
constexpr double kRelOptimal = 0.05; ///< of the optimal errors
constexpr double kRelExcess = 0.05;  ///< of (default - optimal)
constexpr double kAbsolute = 2.0;    ///< bit errors
constexpr double kNoiseSigmas = 0.6; ///< units of sqrt(optimal errors)

/** Calibration steps, probes included, per wordline. Assumption. */
constexpr int kMaxCalibSteps = 5;

/** Wordlines sampled by a strided block sweep. */
std::vector<int>
sampledWordlines(const nand::Chip &chip, int wl_stride)
{
    std::vector<int> wls;
    for (int wl = 0; wl < chip.geometry().wordlinesPerBlock();
         wl += wl_stride) {
        wls.push_back(wl);
    }
    return wls;
}

/**
 * Assign the session's spans a virtual timeline from the latency
 * model: children laid end-to-end from @p session_start in recording
 * (causal) order, a trailing "xfer" child for the page transfer, and
 * the root pinned to @p latency_us — the exact sessionLatencyUs value
 * the metrics accumulate, so per-class critical-path totals computed
 * from root spans match the metrics bit-exactly (the children's sum
 * only agrees to rounding, their additions group differently).
 */
void
timeSessionSpans(util::SpanBuffer &sb, const LatencyParams &latency,
                 double session_start, double latency_us)
{
    double t = session_start;
    for (int s = 1; s < sb.size(); ++s) {
        const util::SpanRec &rec = sb.rec(s);
        double dur = 0.0;
        if (std::strcmp(rec.cls, "attempt") == 0) {
            dur = latency.baseUs + latency.decodeUs
                + sb.numAttr(s, "sense_ops") * latency.senseUs;
        } else if (std::strcmp(rec.cls, "assist_read") == 0) {
            dur = latency.baseUs + latency.senseUs;
        }
        sb.time(s, t, dur);
        t += dur;
    }
    const int xfer = sb.begin("xfer", 0);
    sb.time(xfer, t, latency.transferUs);
    sb.time(0, session_start, latency_us);
}

} // namespace

PolicyBlockStats
evaluateBlock(const nand::Chip &chip, int block, const ReadPolicy &policy,
              const ecc::EccModel &ecc_model,
              const std::optional<nand::SentinelOverlay> &overlay,
              const LatencyParams &latency, int page, int wl_stride,
              int threads, std::uint64_t read_stream,
              util::SpanTrace *spans)
{
    util::fatalIf(wl_stride < 1, "evaluateBlock: bad stride");
    util::fatalIf(threads < 1, "evaluateBlock: bad thread count");
    const int target_page =
        page < 0 ? chip.grayCode().msbPage() : page;

    const std::vector<int> wls = sampledWordlines(chip, wl_stride);
    const nand::ReadClock clock(read_stream);

    // Sessions run in parallel, each writing only its own slot; the
    // floating-point reduction below stays sequential in wordline
    // order so the statistics are bit-identical at any thread count.
    PolicyBlockStats stats;
    std::vector<ReadSessionResult> &sessions = stats.sessionResults;
    sessions.resize(wls.size());
    std::vector<util::SpanBuffer> bufs(spans ? wls.size() : 0);
    util::parallelFor(
        threads, static_cast<int>(wls.size()), [&](int i) {
            ReadContext ctx(chip, block,
                            wls[static_cast<std::size_t>(i)], target_page,
                            ecc_model, overlay, clock);
            if (spans) {
                util::SpanBuffer &sb = bufs[static_cast<std::size_t>(i)];
                ctx.setSpanBuffer(&sb, sb.begin("read_session"));
            }
            sessions[static_cast<std::size_t>(i)] = policy.read(ctx);
        });

    double span_cursor = 0.0;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        const ReadSessionResult &session = sessions[i];
        const double latency_us = sessionLatencyUs(session, latency);
        ++stats.sessions;
        if (!session.success)
            ++stats.failures;
        stats.retries.add(session.retries());
        stats.senseOps.add(session.senseOps);
        stats.latencyUs.add(latency_us);
        stats.retriesPerWordline.push_back(session.retries());
        recordSession(stats.metrics, session, latency_us);
        if (spans) {
            util::SpanBuffer &sb = bufs[i];
            sb.str(0, "policy", policy.name());
            sb.num(0, "wordline", static_cast<double>(wls[i]));
            sb.num(0, "page", static_cast<double>(target_page));
            sb.num(0, "attempts", static_cast<double>(session.attempts));
            sb.num(0, "assist_reads",
                   static_cast<double>(session.assistReads));
            sb.num(0, "sense_ops", static_cast<double>(session.senseOps));
            sb.num(0, "success", session.success ? 1.0 : 0.0);
            timeSessionSpans(sb, latency, span_cursor, latency_us);
            spans->emit(sb);
            span_cursor += latency_us;
        }
    }
    return stats;
}

double
successBudget(std::uint64_t err_optimal, std::uint64_t err_default)
{
    const double opt = static_cast<double>(err_optimal);
    const double def = static_cast<double>(err_default);
    const double excess = def > opt ? def - opt : 0.0;
    const double slack = std::max(kRelOptimal * opt, kRelExcess * excess)
        + kAbsolute + kNoiseSigmas * std::sqrt(opt);
    return opt + slack;
}

WordlineAccuracy
evaluateWordlineAccuracy(const nand::Chip &chip, int block, int wl,
                         const Characterization &tables,
                         const nand::SentinelOverlay &overlay,
                         const AccuracyOptions &options)
{
    const auto defaults = chip.model().defaultVoltages();
    const int states = chip.geometry().states();
    const nand::OracleSearch oracle;

    WordlineAccuracy out;
    out.boundaries.resize(static_cast<std::size_t>(states));

    nand::ReadSeq seq =
        nand::ReadClock(options.readStream).session(block, wl);
    const auto sent =
        sentinelSnapshot(chip, block, wl, overlay, seq.next());
    const auto data = nand::WordlineSnapshot::dataRegion(
        chip, block, wl, seq.next());

    const int k_s = tables.sentinelBoundary;
    const int v_s_def = defaults[static_cast<std::size_t>(k_s)];
    out.dRate = countSentinelErrors(sent, k_s, v_s_def).dRate();

    InferenceEngine engine(tables, defaults);
    const InferredVoltages inferred = engine.infer(out.dRate);

    // Oracle ground truth and per-boundary budgets.
    const auto opts = oracle.optimalOffsets(data, defaults);
    std::vector<double> budget(static_cast<std::size_t>(states), 0.0);
    for (int k = 1; k < states; ++k) {
        const auto &o = opts[static_cast<std::size_t>(k)];
        budget[static_cast<std::size_t>(k)] =
            successBudget(o.errors, o.defaultErrors);
    }

    const auto within_budget = [&](const std::vector<int> &voltages) {
        for (int k = 1; k < states; ++k) {
            const auto err = data.boundaryErrors(
                k, voltages[static_cast<std::size_t>(k)]);
            if (static_cast<double>(err)
                > budget[static_cast<std::size_t>(k)]) {
                return false;
            }
        }
        return true;
    };

    // Calibration: step the sentinel offset while the wordline's
    // voltages are still off (the offline counterpart of "while the
    // read keeps failing"), then spend the remaining retry budget
    // probing +/- delta around the converged estimate, keeping the
    // first voltage set whose read succeeds (exactly what the online
    // policy does with ECC feedback).
    int offset = inferred.sentinelOffset;
    std::vector<int> calibrated = inferred.voltages;
    int steps = 0;
    while (steps < kMaxCalibSteps) {
        if (within_budget(calibrated))
            break;
        const auto obs = observeStateChange(
            data, sent, k_s, v_s_def, v_s_def + offset);
        if (obs.decision == CalibrationCase::Converged)
            break;
        offset = calibratedOffset(
            offset, obs.decision == CalibrationCase::TuneFurther,
            out.dRate, options.calibration.delta);
        calibrated = engine.inferAt(offset).voltages;
        ++steps;
    }
    if (!within_budget(calibrated)) {
        // Probe around the converged center; first success wins.
        const std::vector<int> center = engine.inferAt(offset).voltages;
        calibrated = center;
        for (int probe = 1; steps < kMaxCalibSteps; ++probe) {
            const int step = (probe + 1) / 2;
            const int try_offset = offset
                + (probe % 2 ? 1 : -1) * step * options.calibration.delta;
            const auto v = engine.inferAt(try_offset).voltages;
            ++steps;
            if (within_budget(v)) {
                calibrated = v;
                break;
            }
        }
    }
    out.calibSteps = steps;

    for (int k = 1; k < states; ++k) {
        auto &b = out.boundaries[static_cast<std::size_t>(k)];
        const int vd = defaults[static_cast<std::size_t>(k)];
        b.offOptimal = opts[static_cast<std::size_t>(k)].offset;
        b.offInferred =
            inferred.voltages[static_cast<std::size_t>(k)] - vd;
        b.offCalibrated =
            calibrated[static_cast<std::size_t>(k)] - vd;
        b.errDefault = opts[static_cast<std::size_t>(k)].defaultErrors;
        b.errInferred = data.boundaryErrors(k, vd + b.offInferred);
        b.errCalibrated = data.boundaryErrors(k, vd + b.offCalibrated);
        b.errOptimal = opts[static_cast<std::size_t>(k)].errors;

        const double bud = budget[static_cast<std::size_t>(k)];
        b.inferOk = static_cast<double>(b.errInferred) <= bud;
        b.calibOk = static_cast<double>(b.errCalibrated) <= bud;
    }
    return out;
}

std::vector<WordlineAccuracy>
evaluateBlockAccuracy(const nand::Chip &chip, int block,
                      const Characterization &tables,
                      const nand::SentinelOverlay &overlay,
                      const AccuracyOptions &options, int wl_stride,
                      int threads)
{
    util::fatalIf(wl_stride < 1, "evaluateBlockAccuracy: bad stride");
    util::fatalIf(threads < 1, "evaluateBlockAccuracy: bad thread count");

    const std::vector<int> wls = sampledWordlines(chip, wl_stride);
    std::vector<WordlineAccuracy> out(wls.size());
    util::parallelFor(
        threads, static_cast<int>(wls.size()), [&](int i) {
            out[static_cast<std::size_t>(i)] = evaluateWordlineAccuracy(
                chip, block, wls[static_cast<std::size_t>(i)], tables,
                overlay, options);
        });
    return out;
}

} // namespace flash::core
