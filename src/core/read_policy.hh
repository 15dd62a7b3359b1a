/**
 * @file
 * Read-retry policies: the proposed sentinel scheme and the baselines
 * it is evaluated against.
 *
 * A policy drives one page-read session: initial read at some voltage
 * set, then retries with re-tuned voltages until the page decodes or
 * the retry budget is exhausted. Policies are compared on retry
 * counts, total sense operations and derived latency.
 */

#ifndef SENTINELFLASH_CORE_READ_POLICY_HH
#define SENTINELFLASH_CORE_READ_POLICY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/calibration.hh"
#include "core/characterization.hh"
#include "core/inference.hh"
#include "core/voltage_cache.hh"
#include "core/voltage_predictor.hh"
#include "ecc/ecc_model.hh"
#include "nandsim/chip.hh"
#include "nandsim/oracle.hh"
#include "nandsim/read_seq.hh"
#include "nandsim/snapshot.hh"
#include "util/metrics.hh"
#include "util/span_trace.hh"

namespace flash::core
{

/** Outcome and cost of one page-read session. */
struct ReadSessionResult
{
    bool success = false;

    /** Page-read attempts, including the first read. */
    int attempts = 0;

    /** Extra single-voltage sentinel-assist reads. */
    int assistReads = 0;

    /** Total read-voltage applications (sensing cost). */
    int senseOps = 0;

    /** Voltages of the last attempt (1-based by boundary). */
    std::vector<int> finalVoltages;

    /** Data-region bit errors of the last attempt. */
    std::uint64_t finalErrors = 0;

    /**
     * Calibration outcome counts of this session (sentinel policy
     * only): case-1 "tune further" decisions, case-2 "tune back"
     * decisions, and converged state-change comparisons.
     */
    int calibTuneFurther = 0;
    int calibTuneBack = 0;
    int calibConverged = 0;

    /** Read retries = attempts after the first. */
    int retries() const { return attempts > 0 ? attempts - 1 : 0; }
};

/** Timing parameters of the latency model. */
struct LatencyParams
{
    double senseUs = 12.0;    ///< per read-voltage application
    double baseUs = 13.0;     ///< fixed per page-read attempt
    double transferUs = 20.0; ///< page transfer to the controller
    double decodeUs = 10.0;   ///< ECC decode attempt
};

/**
 * Latency of a whole read session under the timing model. Every
 * page-read attempt pays the fixed overhead and an ECC decode try; an
 * assist read is a single-voltage on-die sense of the sentinel
 * columns — it pays the fixed command overhead and its sense op (part
 * of senseOps) but no page transfer and no decode. The page is
 * transferred to the controller once per session. The SSD simulator
 * charges the identical model (transfer modelled on the channel);
 * see ssd::SsdSim::readPageOp.
 */
double sessionLatencyUs(const ReadSessionResult &session,
                        const LatencyParams &params);

/**
 * Accumulate one session into a metrics registry under the "read.*"
 * namespace: counters read.sessions, read.failures, read.attempts,
 * read.retries, read.sense_ops, read.assist_reads and the calibration
 * outcomes read.calib.{case1_tune_further, case2_tune_back,
 * converged}; histograms read.latency_us, read.attempts_per_read and
 * read.sense_ops_per_read.
 */
void recordSession(util::MetricsRegistry &metrics,
                   const ReadSessionResult &session, double latency_us);

/**
 * Shared state of one read session: lazily-fetched data and sentinel
 * snapshots plus the decodability oracle against the ECC model. One
 * data snapshot is reused across the session's attempts (retries only
 * re-tune voltages; fresh sensing noise across retries is a
 * second-order effect the paper also neglects). Each snapshot comes
 * from the chip's snapshot memo (nand::Chip::memoSnapshot): the first
 * session to read a (block, wordline, read_seq, column range) senses
 * it in one streaming nand::SenseKernel pass, and every later session
 * of the same stream on the unmutated block, e.g. another policy's
 * arm over the same wordlines, shares that snapshot.
 *
 * Read sequencing is caller-owned: sensing-noise seeds derive from
 * the clock's stream and this context's (block, wordline, read
 * counter), so identical sessions reproduce identical noise no
 * matter what other reads run before or concurrently.
 */
class ReadContext
{
  public:
    ReadContext(const nand::Chip &chip, int block, int wl, int page,
                const ecc::EccModel &ecc_model,
                std::optional<nand::SentinelOverlay> overlay,
                nand::ReadClock clock = nand::ReadClock());

    /** Lazily-fetched data-region snapshot. */
    const nand::WordlineSnapshot &dataSnap();

    /** Lazily-fetched sentinel snapshot (requires an overlay). */
    const nand::WordlineSnapshot &sentSnap();

    /** Data-region bit errors of the page at a voltage set. */
    std::uint64_t pageErrors(const std::vector<int> &voltages);

    /** Whether the page decodes with @p page_errors (a pageErrors()). */
    bool decodable(std::uint64_t page_errors);

    /** Sense operations of one attempt of this page. */
    int pageSenseOps() const;

    /**
     * Attach a causal span recorder: policies append one child span
     * of @p root per attempt / assist read / calibration step (see
     * util::span_trace). Recording alters no session behaviour and
     * consumes no read sequence numbers; nullptr detaches.
     */
    void setSpanBuffer(util::SpanBuffer *spans, int root)
    {
        spans_ = spans;
        spanRoot_ = root;
    }

    /** Attached span recorder (nullptr when none). */
    util::SpanBuffer *spanBuffer() const { return spans_; }

    /** Buffer-local index of the session's root span. */
    int spanRoot() const { return spanRoot_; }

    const nand::Chip &chip() const { return *chip_; }
    int block() const { return block_; }
    int wordline() const { return wl_; }
    int page() const { return page_; }
    const ecc::EccModel &eccModel() const { return *ecc_; }
    const std::optional<nand::SentinelOverlay> &overlay() const
    {
        return overlay_;
    }

  private:
    const nand::Chip *chip_;
    int block_, wl_, page_;
    const ecc::EccModel *ecc_;
    std::optional<nand::SentinelOverlay> overlay_;
    nand::ReadSeq seq_;
    std::shared_ptr<const nand::WordlineSnapshot> data_;
    std::shared_ptr<const nand::WordlineSnapshot> sent_;
    util::SpanBuffer *spans_ = nullptr;
    int spanRoot_ = -1;
};

/**
 * Interface of a read-retry policy. read() is const: a configured
 * policy holds no per-session state, so one instance may serve many
 * sessions concurrently (all mutable session state lives in the
 * ReadContext).
 */
class ReadPolicy
{
  public:
    virtual ~ReadPolicy() = default;

    /** Policy name for reports. */
    virtual std::string name() const = 0;

    /** Run one page-read session. */
    virtual ReadSessionResult read(ReadContext &ctx) const = 0;
};

/**
 * The default mechanism of current flash chips: a vendor retry table
 * that walks all read voltages down a profile-shaped staircase.
 */
class VendorRetryPolicy : public ReadPolicy
{
  public:
    /**
     * @param model Voltage model (supplies defaults and the typical
     *        shift profile vendors encode into their tables).
     * @param max_retries Retry budget.
     * @param step_dac Per-retry step at the mid boundary.
     */
    VendorRetryPolicy(const nand::VoltageModel &model, int max_retries = 12,
                      double step_dac = 3.5);

    std::string name() const override { return "current-flash"; }
    ReadSessionResult read(ReadContext &ctx) const override;

    /** Voltage set of retry @p i (1-based). */
    std::vector<int> retryVoltages(int i) const;

    /** Retry budget. */
    int maxRetries() const { return maxRetries_; }

  private:
    std::vector<int> defaults_;
    std::vector<double> profile_; ///< per-boundary step scale
    int maxRetries_;
    double stepDac_;
};

/**
 * Oracle baseline ("OPT"): first read at the defaults, then one jump
 * straight to the exhaustive-search optimum. Unimplementable on real
 * hardware; upper-bounds every policy.
 */
class OraclePolicy : public ReadPolicy
{
  public:
    explicit OraclePolicy(std::vector<int> defaults)
        : defaults_(std::move(defaults))
    {}

    std::string name() const override { return "oracle"; }
    ReadSessionResult read(ReadContext &ctx) const override;

  private:
    std::vector<int> defaults_;
    nand::OracleSearch oracle_;
};

/**
 * Tracking baseline (Cai et al. HPCA'15 / Shim et al. MICRO'19
 * style): the FTL periodically records the optimal voltages of one
 * reference wordline per block and applies them to every read in the
 * block; on failure it falls back to vendor stepping around the
 * tracked point.
 */
class TrackingPolicy : public ReadPolicy
{
  public:
    /**
     * @param vendor Fallback stepping policy parameters.
     * @param reference_wl Reference wordline whose optimum is tracked.
     */
    TrackingPolicy(const nand::VoltageModel &model, int reference_wl = 0,
                   int max_retries = 12, double step_dac = 3.5);

    std::string name() const override { return "tracking"; }

    /**
     * Update the tracked voltages from the reference wordline's
     * current state (the FTL's periodic refresh). The reference read
     * draws its sensing noise from @p clock.
     */
    void track(const nand::Chip &chip, int block,
               nand::ReadClock clock = nand::ReadClock());

    /** Tracked voltage set (after track()). */
    const std::vector<int> &trackedVoltages() const { return tracked_; }

    ReadSessionResult read(ReadContext &ctx) const override;

  private:
    std::vector<int> defaults_;
    std::vector<double> profile_;
    std::vector<int> tracked_;
    int referenceWl_;
    int maxRetries_;
    double stepDac_;
    nand::OracleSearch oracle_;
};

/**
 * The paper's sentinel policy: on a failed default read, measure the
 * sentinel error difference (via a cheap single-voltage assist read
 * when the failed page did not sense the sentinel voltage), infer all
 * voltages from the factory tables, and calibrate with state-change
 * comparisons if the inferred read still fails.
 */
class SentinelPolicy : public ReadPolicy
{
  public:
    /**
     * @param tables Factory characterization of the matching band.
     * @param defaults Default voltages.
     * @param calibration Calibration step parameters.
     * @param max_retries Retry budget (including the inferred read).
     */
    SentinelPolicy(const Characterization &tables,
                   std::vector<int> defaults,
                   CalibrationParams calibration = {}, int max_retries = 10);

    std::string
    name() const override
    {
        std::string n = "sentinel";
        if (model_)
            n += "+model";
        if (cache_)
            n += "+cache";
        return n;
    }
    ReadSessionResult read(ReadContext &ctx) const override;

    /** Inference engine (exposed for the experiment harnesses). */
    const InferenceEngine &engine() const { return engine_; }

    /**
     * Override the voltages of the first read attempt (e.g. with
     * FTL-tracked voltages, the combined scheme the paper suggests in
     * Related Work). The sentinel error difference is still measured
     * against the default sentinel voltage.
     */
    void setFirstReadVoltages(std::vector<int> voltages);

    /**
     * Attach a per-block inferred-voltage cache (nullptr detaches).
     * With a cache, every session first looks up the block's last
     * successful sentinel offset under its current aging epoch and, on
     * a hit, tries the voltages inferred from it before the default
     * read — a decode there skips the sentinel assist read entirely.
     * Offsets are stored back whenever a session succeeds past the
     * default read. The cache makes sessions depend on which reads ran
     * before them, so deterministic harnesses attach one only to
     * serial runs; without attachCache() behaviour is bit-identical to
     * the cacheless policy.
     */
    void attachCache(VoltageCache *cache) { cache_ = cache; }

    /** Attached cache (nullptr when none). */
    VoltageCache *cache() const { return cache_; }

    /**
     * Attach a predictive voltage model (nullptr detaches). With a
     * model, every session first solves a closed-form prediction for
     * the block's chunk under its current aging epoch; when the
     * prediction's confidence clears the model's threshold, the first
     * attempt reads directly at the predicted offset with **no assist
     * sense**, falling back to the normal first-read/assist path if
     * that attempt fails to decode. Every successful inference or
     * calibration feeds the model an observation, so confidence grows
     * as the policy runs. Like the cache, an attached model makes
     * sessions depend on which reads ran before them — deterministic
     * harnesses attach one only to serial runs; without attachModel()
     * behaviour is bit-identical to the model-free policy.
     */
    void attachModel(VoltagePredictor *model) { model_ = model; }

    /** Attached model (nullptr when none). */
    VoltagePredictor *model() const { return model_; }

  private:
    InferenceEngine engine_;
    CalibrationParams calibration_;
    int maxRetries_;
    std::vector<int> firstRead_;
    VoltageCache *cache_ = nullptr;
    VoltagePredictor *model_ = nullptr;
};

} // namespace flash::core

#endif // SENTINELFLASH_CORE_READ_POLICY_HH
