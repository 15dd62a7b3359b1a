/**
 * @file
 * Online predictive read-voltage model.
 *
 * The per-block VoltageCache (PR 3) is reactive: it replays the last
 * verified sentinel offset of one block under one aging epoch and
 * must miss on any new block or epoch. This module learns instead: a
 * VoltagePredictor keeps, per *chunk* of neighbouring blocks, the
 * running moments of an online least-squares regression of the
 * sentinel offset over aging features — P/E count, retention dwell
 * and storage temperature (the HeatWatch observation from Luo et al.,
 * arXiv 1808.04016) — fed by every successful sentinel inference and
 * every background scrub probe. At read time a closed-form solve of
 * the 4x4 ridge normal equations yields the predicted offset plus a
 * confidence derived from the residual variance and sample count;
 * when confidence clears the configured threshold, SentinelPolicy
 * issues the read directly at the predicted offset with **no assist
 * sense**, falling back to the normal assist path only if that
 * attempt fails to decode.
 *
 * Determinism: the moments are util::SignedExactSum /
 * util::ExactSum superaccumulators, so the model state — and every
 * prediction solved from it — is a pure function of the *multiset*
 * of observations: any observation order, any shard merge order,
 * any thread count produces byte-identical state and predictions.
 * The solver is plain deterministic double arithmetic (Gaussian
 * elimination with partial pivoting) on those exactly-rounded
 * moments.
 *
 * Thread-safe (internally locked) like VoltageCache, with the same
 * caveat: a model attached to concurrently-evaluated read sessions
 * makes results depend on completion order, so deterministic
 * harnesses attach one only to serial (threads=1) runs. Strictly
 * opt-in — no policy consults a model unless explicitly attached.
 */

#ifndef SENTINELFLASH_CORE_VOLTAGE_PREDICTOR_HH
#define SENTINELFLASH_CORE_VOLTAGE_PREDICTOR_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

#include "core/voltage_cache.hh"
#include "util/exact_sum.hh"
#include "util/metrics.hh"

namespace flash::core
{

/** Knobs of the predictive voltage model. */
struct VoltageModelConfig
{
    /**
     * Blocks pooled per regression chunk. Neighbouring blocks share
     * process variation, so pooling them multiplies the sample count
     * behind each fit; 1 learns strictly per block.
     */
    int chunkBlocks = 4;

    /** Confidence a prediction needs to gate the assist-free read. */
    double confidenceThreshold = 0.5;

    /** Reject nonsensical knob combinations (fatal). */
    void validate() const;
};

/** One closed-form prediction. */
struct VoltagePrediction
{
    /** Predicted sentinel offset, rounded to the DAC grid. */
    int sentinelOffset = 0;

    /** Unrounded regression output (clamped). */
    double predicted = 0.0;

    /** Confidence in [0, 1): grows with samples, shrinks with residual. */
    double confidence = 0.0;

    /** Residual standard deviation of the chunk's fit (DAC steps). */
    double residualStd = 0.0;

    /** Observations behind the fit. */
    std::uint64_t samples = 0;

    /** Whether this prediction clears the gating threshold. */
    bool confident = false;
};

/**
 * Deterministic online least-squares predictor of sentinel offsets.
 * See the file comment for the learning model and the determinism
 * argument.
 */
class VoltagePredictor
{
  public:
    /** Lifetime counters (exported as "model.*" metrics). */
    struct Stats
    {
        std::uint64_t observes = 0;      ///< observations ingested
        std::uint64_t predicts = 0;      ///< predictions solved
        std::uint64_t fastAttempts = 0;  ///< gated assist-free attempts
        std::uint64_t fastHits = 0;      ///< ... that decoded
        std::uint64_t fastMisses = 0;    ///< ... that fell back
        std::uint64_t lowConfidence = 0; ///< predictions below the gate
    };

    // Model constants: assumptions, as the paper's method learns no
    // model.

    /** Observations a chunk needs before any prediction may gate. */
    static constexpr std::uint64_t kMinSamples = 3;

    /**
     * Ridge regularizer on the normal-equation diagonal. Keeps the
     * solve well-posed when a chunk's observations share one aging
     * epoch, where the fit shrinks toward the chunk-mean offset.
     */
    static constexpr double kRidgeLambda = 1e-3;

    /** Predictions clamp to +/- this many DAC steps. */
    static constexpr int kMaxOffsetDac = 192;

    /** Sample count at which the confidence prior stops dominating. */
    static constexpr double kConfSamples = 4.0;

    /**
     * Standard error of the predicted mean offset (residual /
     * sqrt(n), DAC steps) at which confidence halves: the gate keys
     * on how precisely the chunk mean is known, not on wordline
     * scatter.
     */
    static constexpr double kConfSigmaDac = 2.0;

    explicit VoltagePredictor(VoltageModelConfig config = {});

    const VoltageModelConfig &config() const { return config_; }

    /**
     * Ingest one verified (epoch, offset) observation of @p block —
     * a successful sentinel inference/calibration or a scrub probe.
     */
    void observe(int block, const BlockEpoch &epoch, int sentinel_offset);

    /**
     * Closed-form prediction for @p block under @p epoch. Solves the
     * chunk's normal equations (cached until the next observe) and
     * evaluates them at the epoch's features. A chunk with no
     * observations predicts offset 0 at confidence 0.
     */
    VoltagePrediction predict(int block, const BlockEpoch &epoch) const;

    /**
     * Same prediction, bypassing the cached solve (every call pays
     * the full elimination). Identical result bit-for-bit; exists so
     * the microbench can time cached vs uncached honestly.
     */
    VoltagePrediction predictFresh(int block,
                                   const BlockEpoch &epoch) const;

    /**
     * Confidence of @p block's chunk (epoch-independent — residual
     * variance and sample count only). Cheap enough for the
     * scrubber's per-scan uncertainty ordering.
     */
    double confidence(int block) const;

    /** Whether @p block's chunk clears the gating threshold. */
    bool confidentBlock(int block) const;

    /** Outcome counters of the policy's gated fast path. */
    void noteFastAttempt();
    void noteFastHit();
    void noteFastMiss();
    void noteLowConfidence();

    /** Chunks holding at least one observation. */
    std::size_t chunks() const;

    /** Mean chunk confidence (0 when no chunk has data). */
    double meanConfidence() const;

    /** Fraction of chunks clearing the gating threshold. */
    double confidentFraction() const;

    /** Counter snapshot. */
    Stats stats() const;

    /**
     * Add the counters to a metrics registry as model.observe,
     * model.predict, model.fast_attempt, model.fast_hit,
     * model.fast_miss, model.low_confidence and model.chunks.
     */
    void exportMetrics(util::MetricsRegistry &metrics) const;

    /** Heap + object bytes of the model state. */
    std::size_t footprintBytes() const;

    /**
     * Serialize the solved model state (chunk-id order: sample
     * counts, weights, residuals, confidences) as one JSON object.
     * Byte-identical for identical observation multisets — the
     * determinism tests and the fleet byte-identity gate diff it.
     */
    void writeStateJson(std::ostream &os) const;

    /** writeStateJson() into a string. */
    std::string stateJson() const;

  private:
    static constexpr int kFeatures = 4;

    /**
     * Exact running moments and the (lazily) solved fit of one chunk.
     * The moments are the canonical state; everything under `solved`
     * is a cache of the deterministic solve over them.
     */
    struct Chunk
    {
        std::uint64_t n = 0;
        util::SignedExactSum xtx[kFeatures * (kFeatures + 1) / 2];
        util::SignedExactSum xty[kFeatures];
        util::ExactSum yy; ///< sum of squared offsets (non-negative)

        bool solved = false;
        double w[kFeatures] = {0.0, 0.0, 0.0, 0.0};
        double residualStd = 0.0;
        double conf = 0.0;
    };

    int chunkOf(int block) const { return block / config_.chunkBlocks; }
    static void features(const BlockEpoch &epoch,
                         double (&x)[kFeatures]);
    void solveChunk(Chunk &chunk) const;
    VoltagePrediction predictLocked(const Chunk *chunk,
                                    const BlockEpoch &epoch,
                                    bool use_cache) const;

    VoltageModelConfig config_;
    mutable std::mutex mutex_;
    /** Ordered by chunk id so serialization has one canonical order. */
    mutable std::map<int, Chunk> chunks_;
    mutable Stats stats_;
};

} // namespace flash::core

#endif // SENTINELFLASH_CORE_VOLTAGE_PREDICTOR_HH
