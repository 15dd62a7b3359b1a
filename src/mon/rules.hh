/**
 * @file
 * Declarative alert rules over per-device window series, plus a
 * MAD-based cohort outlier detector.
 *
 * A rule names a window metric and a condition over an N-window
 * lookback:
 *
 *  - Threshold: the latest value crosses the threshold.
 *  - RateOfChange: value(now) - value(now - lookback) crosses it.
 *  - StuckAt: the value is bit-identical for lookback+1 consecutive
 *    windows while also crossing the threshold (e.g. a refresh queue
 *    pinned at a nonzero depth that the budget never drains).
 *  - BudgetBurn: the sum of the metric over the last lookback
 *    windows crosses it (error-budget burn, e.g. total retries).
 *
 * Alerts fire on the rising edge only and carry hysteresis: once
 * active, a rule deactivates only after kClearWindows (2) consecutive
 * windows on the safe side of threshold -/+ (1 - kClearRatio) *
 * max(|threshold|, 1), with kClearRatio 0.8 — so a value oscillating
 * at the threshold cannot flap across adjacent windows. Firing and
 * clearing both emit structured Alert records with severity,
 * device/cohort attribution and the triggering window.
 *
 * The OutlierDetector is evaluated at frame boundaries across each
 * cohort's devices: it computes the cohort median and MAD of a
 * metric's latest value and flags devices whose robust z-score
 * (0.6745 * |x - median| / MAD) exceeds k — drift that per-device
 * thresholds cannot see because the whole cohort defines "normal".
 * It screens retries_per_read in cohorts of at least 4 devices (see
 * rules.cc).
 *
 * Everything here is pure integer/double arithmetic over the parsed
 * series — no wall clock, no randomness — so the alert stream is a
 * deterministic function of the health-stream bytes.
 */

#ifndef SENTINELFLASH_MON_RULES_HH
#define SENTINELFLASH_MON_RULES_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mon/timeseries.hh"

namespace flash::mon
{

enum class Severity { Info = 0, Warn = 1, Critical = 2 };

/** Printable name ("info" / "warn" / "critical"). */
const char *severityName(Severity s);

/** Parse a severity name ("crit" accepted); false on unknown. */
bool parseSeverity(const std::string &name, Severity &out);

enum class RuleKind { Threshold, RateOfChange, StuckAt, BudgetBurn };

/** Printable name ("threshold" / "rate_of_change" / ...). */
const char *ruleKindName(RuleKind k);

/** Which side of the threshold breaches. */
enum class Direction { Above, Below };

/** One declarative alert rule; see the file comment. */
struct AlertRule
{
    std::string name;
    std::string metric; ///< see metricValue() for the supported keys
    RuleKind kind = RuleKind::Threshold;
    Direction direction = Direction::Above;
    double threshold = 0.0;
    int lookback = 1; ///< windows (RateOfChange/StuckAt/BudgetBurn)
    Severity severity = Severity::Warn;

    void validate() const;
};

/** One structured alert event. */
struct Alert
{
    std::string rule;
    RuleKind kind = RuleKind::Threshold;
    Severity severity = Severity::Warn;
    std::string event; ///< "fire" or "clear"
    int device = -1;
    std::string cohort;
    std::int64_t window = -1; ///< triggering window index
    double tUs = 0.0;
    double value = 0.0; ///< metric/condition value at the edge
    double threshold = 0.0;
};

/** Serialize one alert as a JSON-lines record (no trailing \n). */
void writeAlertJson(std::ostream &os, const Alert &alert);

/**
 * Value of a rule metric in one window sample; false when the sample
 * does not carry the metric (rule does not evaluate). Supported:
 * "reads", "retries", "retries_per_read", "sense_ops_per_read",
 * "assist_reads_per_read", "read_p99_us", "warm_fraction",
 * "refresh_queue", "warm_read_rate", "model_confidence",
 * "model_confident_fraction".
 */
bool metricValue(const WindowSample &s, const std::string &metric,
                 double &out);

/** Stateful per-(rule, device) evaluator; see the file comment. */
class RuleEngine
{
  public:
    explicit RuleEngine(std::vector<AlertRule> rules);

    /**
     * Evaluate every rule against @p dev's newest window; appends
     * fire/clear events to @p out.
     */
    void onSample(const DeviceSeries &dev, std::vector<Alert> &out);

    const std::vector<AlertRule> &rules() const { return rules_; }

    /** Currently active (fired, not yet cleared) alerts. */
    std::vector<Alert> active() const;

    /** Fire events emitted so far. */
    std::uint64_t fired() const { return fired_; }

    /** Worst severity ever fired (Info when none). */
    Severity worstFired() const { return worst_; }
    bool anyFired() const { return fired_ > 0; }

    void noteFired(Severity s); ///< fold an external fire (outliers)

  private:
    struct State
    {
        bool active = false;
        int clearStreak = 0;
        Alert last; ///< the alert that fired (for active())
    };

    std::vector<AlertRule> rules_;
    std::map<std::pair<int, int>, State> state_; ///< (rule, device)
    std::uint64_t fired_ = 0;
    Severity worst_ = Severity::Info;
};

/** MAD-based cohort outlier detector; see the file comment. */
class OutlierDetector
{
  public:
    /** @param k Robust z-score threshold (fatal unless > 0). */
    explicit OutlierDetector(double k);

    /**
     * Evaluate every cohort's devices at a frame boundary; appends
     * fire/clear events (rule "cohort_outlier") to @p out.
     */
    void evaluate(const FleetSeries &fleet, double tUs,
                  std::vector<Alert> &out);

  private:
    double k_;
    struct State
    {
        bool active = false;
        int clearStreak = 0;
    };
    std::map<int, State> state_; ///< per device
};

} // namespace flash::mon

#endif // SENTINELFLASH_MON_RULES_HH
