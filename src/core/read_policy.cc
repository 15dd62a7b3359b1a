#include "core/read_policy.hh"

#include <algorithm>
#include <cmath>

#include "core/error_difference.hh"
#include "util/logging.hh"

namespace flash::core
{

double
sessionLatencyUs(const ReadSessionResult &session,
                 const LatencyParams &params)
{
    // Every attempt pays the fixed overhead and a decode try; sense
    // cost scales with the voltages applied. An assist read is a
    // single-voltage on-die sense: fixed command overhead only (its
    // sense op is part of senseOps), no transfer, no decode. The page
    // crosses to the controller once per session.
    if (session.attempts == 0 && session.assistReads == 0
        && session.senseOps == 0) {
        return 0.0;
    }
    return session.attempts * (params.baseUs + params.decodeUs)
        + session.assistReads * params.baseUs
        + session.senseOps * params.senseUs + params.transferUs;
}

void
recordSession(util::MetricsRegistry &metrics,
              const ReadSessionResult &session, double latency_us)
{
    metrics.add("read.sessions");
    // Delta 0 still materializes the counter: every export carries the
    // full schema, so metrics_diff never sees a key appear or vanish.
    metrics.add("read.failures", session.success ? 0u : 1u);
    metrics.add("read.attempts", static_cast<std::uint64_t>(session.attempts));
    metrics.add("read.retries",
                static_cast<std::uint64_t>(session.retries()));
    metrics.add("read.sense_ops",
                static_cast<std::uint64_t>(session.senseOps));
    metrics.add("read.assist_reads",
                static_cast<std::uint64_t>(session.assistReads));
    metrics.add("read.calib.case1_tune_further",
                static_cast<std::uint64_t>(session.calibTuneFurther));
    metrics.add("read.calib.case2_tune_back",
                static_cast<std::uint64_t>(session.calibTuneBack));
    metrics.add("read.calib.converged",
                static_cast<std::uint64_t>(session.calibConverged));
    metrics.observe("read.latency_us", latency_us);
    metrics.observe("read.attempts_per_read", session.attempts);
    metrics.observe("read.sense_ops_per_read", session.senseOps);
}

ReadContext::ReadContext(const nand::Chip &chip, int block, int wl,
                         int page, const ecc::EccModel &ecc_model,
                         std::optional<nand::SentinelOverlay> overlay,
                         nand::ReadClock clock)
    : chip_(&chip), block_(block), wl_(wl), page_(page), ecc_(&ecc_model),
      overlay_(std::move(overlay)), seq_(clock.session(block, wl))
{
    util::fatalIf(page < 0 || page >= chip.geometry().pagesPerWordline(),
                  "ReadContext: page out of range");
}

const nand::WordlineSnapshot &
ReadContext::dataSnap()
{
    if (!data_) {
        data_ = chip_->memoSnapshot(block_, wl_, seq_.next(), 0,
                                    chip_->geometry().dataBitlines);
    }
    return *data_;
}

const nand::WordlineSnapshot &
ReadContext::sentSnap()
{
    util::fatalIf(!overlay_, "ReadContext: no sentinel overlay");
    if (!sent_) {
        sent_ = chip_->memoSnapshot(block_, wl_, seq_.next(),
                                    overlay_->start,
                                    overlay_->start + overlay_->count);
    }
    return *sent_;
}

std::uint64_t
ReadContext::pageErrors(const std::vector<int> &voltages)
{
    return dataSnap().pageErrors(page_, voltages);
}

bool
ReadContext::decodable(std::uint64_t page_errors)
{
    return ecc_->pageDecodable(page_errors, dataSnap().cells());
}

int
ReadContext::pageSenseOps() const
{
    return static_cast<int>(
        chip_->grayCode().boundariesOfPage(page_).size());
}

namespace
{

/**
 * Vendor tables encode the batch's typical shift profile; express it
 * as the pairwise-average retention sensitivity of each boundary,
 * normalized at the sentinel (mid) boundary.
 */
std::vector<double>
vendorProfile(const nand::VoltageModel &model)
{
    const int states = model.states();
    std::vector<double> profile(static_cast<std::size_t>(states), 0.0);
    const auto &sens = model.params().stateSens;
    const int mid = states / 2;
    const double norm =
        0.5 * (sens[static_cast<std::size_t>(mid - 1)]
               + sens[static_cast<std::size_t>(mid)]);
    for (int k = 1; k < states; ++k) {
        profile[static_cast<std::size_t>(k)] =
            0.5 * (sens[static_cast<std::size_t>(k - 1)]
                   + sens[static_cast<std::size_t>(k)]) / norm;
    }
    return profile;
}

/** Record one attempt at a voltage set; returns decodability. */
bool
attempt(ReadContext &ctx, const std::vector<int> &voltages,
        ReadSessionResult &session)
{
    ++session.attempts;
    const int sense_ops = ctx.pageSenseOps();
    session.senseOps += sense_ops;
    session.finalVoltages = voltages;
    session.finalErrors = ctx.pageErrors(voltages);
    session.success = ctx.decodable(session.finalErrors);
    if (util::SpanBuffer *sb = ctx.spanBuffer()) {
        const int s = sb->begin("attempt", ctx.spanRoot());
        sb->num(s, "n", session.attempts);
        sb->num(s, "sense_ops", sense_ops);
        sb->num(s, "errors", static_cast<double>(session.finalErrors));
        sb->num(s, "decoded", session.success ? 1.0 : 0.0);
    }
    return session.success;
}

} // namespace

VendorRetryPolicy::VendorRetryPolicy(const nand::VoltageModel &model)
    : defaults_(model.defaultVoltages()), profile_(vendorProfile(model))
{
}

std::vector<int>
VendorRetryPolicy::retryVoltages(int i) const
{
    std::vector<int> v(defaults_);
    for (std::size_t k = 1; k < v.size(); ++k) {
        v[k] -= static_cast<int>(
            std::lround(i * kStepDac * profile_[k]));
    }
    return v;
}

ReadSessionResult
VendorRetryPolicy::read(ReadContext &ctx) const
{
    ReadSessionResult session;
    if (attempt(ctx, defaults_, session))
        return session;
    for (int i = 1; i <= kMaxRetries; ++i) {
        if (attempt(ctx, retryVoltages(i), session))
            return session;
    }
    return session;
}

ReadSessionResult
OraclePolicy::read(ReadContext &ctx) const
{
    ReadSessionResult session;
    if (attempt(ctx, defaults_, session))
        return session;
    const auto optimal = oracle_.optimalVoltages(ctx.dataSnap(), defaults_);
    attempt(ctx, optimal, session);
    return session;
}

TrackingPolicy::TrackingPolicy(const nand::VoltageModel &model)
    : defaults_(model.defaultVoltages()), profile_(vendorProfile(model)),
      tracked_(defaults_)
{
}

void
TrackingPolicy::track(const nand::Chip &chip, int block,
                      nand::ReadClock clock)
{
    const auto snap = nand::WordlineSnapshot::dataRegion(
        chip, block, kReferenceWl,
        clock.session(block, kReferenceWl).next());
    tracked_ = oracle_.optimalVoltages(snap, defaults_);
}

ReadSessionResult
TrackingPolicy::read(ReadContext &ctx) const
{
    ReadSessionResult session;
    if (attempt(ctx, tracked_, session))
        return session;
    // Fall back to profile stepping around the tracked point, probing
    // both directions (the tracked point may over- or undershoot this
    // wordline's optimum).
    for (int i = 1; i <= VendorRetryPolicy::kMaxRetries; ++i) {
        std::vector<int> v(tracked_);
        const int step = (i + 1) / 2;
        const int sign = (i % 2) ? -1 : 1;
        for (std::size_t k = 1; k < v.size(); ++k) {
            v[k] += sign
                * static_cast<int>(
                      std::lround(step * VendorRetryPolicy::kStepDac
                                  * profile_[k]));
        }
        if (attempt(ctx, v, session))
            return session;
    }
    return session;
}

SentinelPolicy::SentinelPolicy(const Characterization &tables,
                               std::vector<int> defaults)
    : engine_(tables, std::move(defaults))
{
}

void
SentinelPolicy::setFirstReadVoltages(std::vector<int> voltages)
{
    util::fatalIf(!voltages.empty()
                      && voltages.size() != engine_.defaults().size(),
                  "SentinelPolicy: first-read voltage size mismatch");
    firstRead_ = std::move(voltages);
}

ReadSessionResult
SentinelPolicy::read(ReadContext &ctx) const
{
    ReadSessionResult session;

    BlockEpoch epoch;
    if (cache_ || model_)
        epoch = epochOf(ctx.chip().blockAge(ctx.block()));

    // Model-predicted fast path: a confident closed-form prediction
    // reads directly at the predicted offset — one attempt, no assist
    // sense, no cache dependency. A decode failure falls through to
    // the cache/assist path below; the model is not re-fed its own
    // prediction (only newly inferred or calibrated offsets train it).
    if (model_) {
        const VoltagePrediction pred =
            model_->predict(ctx.block(), epoch);
        if (util::SpanBuffer *sb = ctx.spanBuffer()) {
            const int s = sb->begin("model_predict", ctx.spanRoot());
            sb->num(s, "offset", pred.sentinelOffset);
            sb->num(s, "confidence", pred.confidence);
            sb->num(s, "gated", pred.confident ? 1.0 : 0.0);
        }
        if (pred.confident) {
            model_->noteFastAttempt();
            if (attempt(ctx, engine_.inferAt(pred.sentinelOffset).voltages,
                        session)) {
                model_->noteFastHit();
                return session;
            }
            model_->noteFastMiss();
        } else {
            model_->noteLowConfidence();
        }
    }

    // Cache-seeded fast path: the block's last successful sentinel
    // offset, valid only under the aging epoch it was inferred in. A
    // decode at the seeded voltages costs one attempt and no assist
    // read. Exactly one lookup per session, so the cache's hit + miss
    // + stale counters sum to the policy's session count.
    std::optional<int> seeded;
    if (cache_) {
        seeded = cache_->lookup(ctx.block(), epoch);
        if (seeded && attempt(ctx, engine_.inferAt(*seeded).voltages,
                              session)) {
            cache_->store(ctx.block(), epoch, *seeded);
            return session;
        }
    }

    const std::vector<int> &first =
        firstRead_.empty() ? engine_.defaults() : firstRead_;
    if (attempt(ctx, first, session))
        return session;

    util::fatalIf(!ctx.overlay(),
                  "SentinelPolicy: wordline has no sentinel overlay");
    const int k_s = engine_.sentinelBoundary();
    const int v_s_default =
        engine_.defaults()[static_cast<std::size_t>(k_s)];

    // The sentinel voltage is sensed by the LSB page; any other page
    // needs one cheap single-voltage assist read to see the sentinel
    // errors.
    const auto &page_ks =
        ctx.chip().grayCode().boundariesOfPage(ctx.page());
    // The failed read only supplies the sentinel errors if it sensed
    // the sentinel boundary at its default voltage.
    const bool sensed_already =
        std::find(page_ks.begin(), page_ks.end(), k_s) != page_ks.end()
        && first[static_cast<std::size_t>(k_s)] == v_s_default;
    if (!sensed_already) {
        ++session.assistReads;
        ++session.senseOps;
        if (util::SpanBuffer *sb = ctx.spanBuffer()) {
            const int s = sb->begin("assist_read", ctx.spanRoot());
            sb->num(s, "sentinel_v", v_s_default);
        }
    }

    const double d =
        countSentinelErrors(ctx.sentSnap(), k_s, v_s_default).dRate();
    InferredVoltages inferred = engine_.infer(d);
    if (attempt(ctx, inferred.voltages, session)) {
        if (cache_)
            cache_->store(ctx.block(), epoch, inferred.sentinelOffset);
        if (model_)
            model_->observe(ctx.block(), epoch, inferred.sentinelOffset);
        return session;
    }

    // Calibration loop: state-change comparison decides the step
    // direction; each step re-derives the other voltages. Once the
    // counts match (converged), the sentinel estimate stands and the
    // remaining budget probes +/- delta around it.
    int offset = inferred.sentinelOffset;
    int probe = 0;
    bool converged = false;
    while (session.attempts <= kMaxRetries) {
        if (!converged) {
            const int v_s_cur = v_s_default + offset;
            const auto obs = observeStateChange(
                ctx.dataSnap(), ctx.sentSnap(), k_s, v_s_default, v_s_cur);
            if (obs.decision == CalibrationCase::Converged) {
                converged = true;
                ++session.calibConverged;
            } else {
                const bool further =
                    obs.decision == CalibrationCase::TuneFurther;
                ++(further ? session.calibTuneFurther
                           : session.calibTuneBack);
                offset = calibratedOffset(offset, further, d,
                                          kCalibration.delta);
            }
            if (util::SpanBuffer *sb = ctx.spanBuffer()) {
                const int s = sb->begin("calib_step", ctx.spanRoot());
                sb->num(s, "case",
                        obs.decision == CalibrationCase::Converged ? 0.0
                            : obs.decision == CalibrationCase::TuneFurther
                            ? 1.0
                            : 2.0);
                sb->num(s, "offset", offset);
            }
        }
        int try_offset = offset;
        if (converged) {
            ++probe;
            const int step = (probe + 1) / 2;
            try_offset += (probe % 2 ? 1 : -1) * step * kCalibration.delta;
        }
        if (attempt(ctx, engine_.inferAt(try_offset).voltages, session)) {
            if (cache_)
                cache_->store(ctx.block(), epoch, try_offset);
            if (model_)
                model_->observe(ctx.block(), epoch, try_offset);
            return session;
        }
    }
    return session;
}

} // namespace flash::core
