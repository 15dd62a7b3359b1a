#include "mon/rules.hh"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <utility>

#include "util/logging.hh"
#include "util/metrics.hh"

namespace flash::mon
{

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Info:
        return "info";
      case Severity::Warn:
        return "warn";
      case Severity::Critical:
        return "critical";
    }
    return "?";
}

bool
parseSeverity(const std::string &name, Severity &out)
{
    if (name == "info") {
        out = Severity::Info;
        return true;
    }
    if (name == "warn" || name == "warning") {
        out = Severity::Warn;
        return true;
    }
    if (name == "critical" || name == "crit") {
        out = Severity::Critical;
        return true;
    }
    return false;
}

const char *
ruleKindName(RuleKind k)
{
    switch (k) {
      case RuleKind::Threshold:
        return "threshold";
      case RuleKind::RateOfChange:
        return "rate_of_change";
      case RuleKind::StuckAt:
        return "stuck_at";
      case RuleKind::BudgetBurn:
        return "budget_burn";
    }
    return "?";
}

void
AlertRule::validate() const
{
    util::fatalIf(name.empty(), "AlertRule: empty name");
    util::fatalIf(metric.empty(), "AlertRule: empty metric");
    util::fatalIf(lookback < 1, "AlertRule: lookback < 1");
}

void
writeAlertJson(std::ostream &os, const Alert &alert)
{
    os << "{\"alert\": \"" << util::jsonEscape(alert.rule)
       << "\", \"kind\": \"" << ruleKindName(alert.kind)
       << "\", \"severity\": \"" << severityName(alert.severity)
       << "\", \"event\": \"" << util::jsonEscape(alert.event)
       << "\", \"device\": " << alert.device << ", \"cohort\": \""
       << util::jsonEscape(alert.cohort)
       << "\", \"window\": " << alert.window
       << ", \"t_us\": " << util::jsonNumber(alert.tUs)
       << ", \"value\": " << util::jsonNumber(alert.value)
       << ", \"threshold\": " << util::jsonNumber(alert.threshold)
       << "}";
}

bool
metricValue(const WindowSample &s, const std::string &metric, double &out)
{
    if (metric == "reads") {
        out = s.reads;
        return true;
    }
    if (metric == "retries") {
        out = s.retries;
        return true;
    }
    if (metric == "retries_per_read") {
        out = s.retriesPerRead;
        return true;
    }
    if (metric == "sense_ops_per_read") {
        out = s.sensesPerRead;
        return true;
    }
    if (metric == "assist_reads_per_read") {
        out = s.assistsPerRead;
        return true;
    }
    if (metric == "read_p99_us") {
        out = s.readP99Us;
        return s.haveLatency;
    }
    if (metric == "warm_fraction") {
        out = s.warmFraction;
        return s.haveScrub;
    }
    if (metric == "refresh_queue") {
        out = s.refreshQueue;
        return s.haveScrub;
    }
    if (metric == "warm_read_rate") {
        out = s.warmReadRate;
        return s.haveScrub;
    }
    if (metric == "model_confidence") {
        out = s.modelConfidence;
        return s.haveModel;
    }
    if (metric == "model_confident_fraction") {
        out = s.modelConfidentFraction;
        return s.haveModel;
    }
    return false;
}

namespace
{

/**
 * Hysteresis of every rule and of the outlier screen (see the file
 * comment). Assumptions.
 */
constexpr double kClearRatio = 0.8;
constexpr int kClearWindows = 2;

bool
breaches(Direction d, double value, double threshold)
{
    return d == Direction::Above ? value > threshold : value < threshold;
}

/**
 * Inside the hysteresis band counts as neither breaching nor safe —
 * an active alert stays active, an inactive one stays inactive.
 */
bool
safelyClear(const AlertRule &r, double value)
{
    const double band =
        (1.0 - kClearRatio) * std::max(std::abs(r.threshold), 1.0);
    return r.direction == Direction::Above
        ? value <= r.threshold - band
        : value >= r.threshold + band;
}

/**
 * Condition value of @p r at @p dev's newest window; false when the
 * metric is absent or the lookback is not yet filled.
 */
bool
conditionValue(const AlertRule &r, const DeviceSeries &dev, double &out)
{
    const WindowSample *now = dev.latest();
    if (now == nullptr)
        return false;
    double v = 0.0;
    if (!metricValue(*now, r.metric, v))
        return false;
    switch (r.kind) {
      case RuleKind::Threshold:
        out = v;
        return true;
      case RuleKind::RateOfChange: {
          const WindowSample *past =
              dev.lookback(static_cast<std::size_t>(r.lookback));
          if (past == nullptr)
              return false;
          double pv = 0.0;
          if (!metricValue(*past, r.metric, pv))
              return false;
          out = v - pv;
          return true;
      }
      case RuleKind::StuckAt: {
          // Stuck = bit-identical across lookback+1 windows AND the
          // stuck value itself breaches the threshold.
          for (int back = 1; back <= r.lookback; ++back) {
              const WindowSample *past =
                  dev.lookback(static_cast<std::size_t>(back));
              if (past == nullptr)
                  return false;
              double pv = 0.0;
              if (!metricValue(*past, r.metric, pv) || pv != v)
                  return false;
          }
          out = v;
          return true;
      }
      case RuleKind::BudgetBurn: {
          double sum = 0.0;
          for (int back = 0; back < r.lookback; ++back) {
              const WindowSample *past =
                  dev.lookback(static_cast<std::size_t>(back));
              if (past == nullptr)
                  return false;
              double pv = 0.0;
              if (!metricValue(*past, r.metric, pv))
                  return false;
              sum += pv;
          }
          out = sum;
          return true;
      }
    }
    return false;
}

} // namespace

RuleEngine::RuleEngine(std::vector<AlertRule> rules)
    : rules_(std::move(rules))
{
    for (const AlertRule &r : rules_)
        r.validate();
}

void
RuleEngine::noteFired(Severity s)
{
    ++fired_;
    worst_ = std::max(worst_, s);
}

void
RuleEngine::onSample(const DeviceSeries &dev, std::vector<Alert> &out)
{
    const WindowSample *now = dev.latest();
    if (now == nullptr)
        return;
    for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
        const AlertRule &r = rules_[ri];
        State &st =
            state_[{static_cast<int>(ri), dev.device()}];

        double value = 0.0;
        const bool evaluable = conditionValue(r, dev, value);

        if (!st.active) {
            if (!evaluable || !breaches(r.direction, value, r.threshold))
                continue;
            st.active = true;
            st.clearStreak = 0;
            Alert a;
            a.rule = r.name;
            a.kind = r.kind;
            a.severity = r.severity;
            a.event = "fire";
            a.device = dev.device();
            a.cohort = dev.cohort();
            a.window = now->window;
            a.tUs = now->tUs;
            a.value = value;
            a.threshold = r.threshold;
            st.last = a;
            noteFired(r.severity);
            out.push_back(std::move(a));
            continue;
        }

        // Active: StuckAt clears as soon as the series moves again
        // (the condition stops being evaluable as "stuck"); the
        // others need kClearWindows consecutive windows beyond the
        // hysteresis band.
        bool safe = false;
        if (r.kind == RuleKind::StuckAt)
            safe = !evaluable || !breaches(r.direction, value, r.threshold);
        else
            safe = evaluable && safelyClear(r, value);
        if (!safe) {
            st.clearStreak = 0;
            continue;
        }
        // Stuck-at is binary (the value moved or it did not), so it
        // clears immediately; the band-based kinds need the streak.
        const int need = r.kind == RuleKind::StuckAt ? 1 : kClearWindows;
        if (++st.clearStreak < need)
            continue;
        st.active = false;
        st.clearStreak = 0;
        Alert a = st.last;
        a.event = "clear";
        a.window = now->window;
        a.tUs = now->tUs;
        a.value = value;
        out.push_back(std::move(a));
    }
}

std::vector<Alert>
RuleEngine::active() const
{
    // state_ is keyed (rule index, device id): the listing is ordered
    // and independent of evaluation history.
    std::vector<Alert> out;
    for (const auto &[key, st] : state_) {
        (void)key;
        if (st.active)
            out.push_back(st.last);
    }
    return out;
}

OutlierDetector::OutlierDetector(double k) : k_(k)
{
    util::fatalIf(k_ <= 0.0, "OutlierDetector: k <= 0");
}

namespace
{

/**
 * The outlier screen: its metric, the smallest deviation from the
 * median that may count (a razor-tight cohort, MAD ~ 0, must not turn
 * rounding noise into outliers), the smallest cohort it screens and
 * its alerts' severity. Assumptions.
 */
constexpr const char *kMadMetric = "retries_per_read";
constexpr double kMadMinAbs = 0.25;
constexpr int kMadMinDevices = 4;
constexpr Severity kMadSeverity = Severity::Warn;

double
medianOf(std::vector<double> v)
{
    // Callers guarantee non-empty.
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace

void
OutlierDetector::evaluate(const FleetSeries &fleet, double tUs,
                          std::vector<Alert> &out)
{
    // Group latest metric values by cohort (cohort-name order, then
    // device-id order within — both deterministic).
    std::map<std::string, std::vector<const DeviceSeries *>> cohorts;
    for (const auto &[id, dev] : fleet.devices()) {
        (void)id;
        if (dev.latest() != nullptr)
            cohorts[dev.cohort()].push_back(&dev);
    }
    for (const auto &[cohort, devs] : cohorts) {
        (void)cohort;
        if (static_cast<int>(devs.size()) < kMadMinDevices)
            continue;
        std::vector<double> values;
        std::vector<const DeviceSeries *> evaluable;
        for (const DeviceSeries *dev : devs) {
            double v = 0.0;
            if (metricValue(*dev->latest(), kMadMetric, v)) {
                values.push_back(v);
                evaluable.push_back(dev);
            }
        }
        if (static_cast<int>(evaluable.size()) < kMadMinDevices)
            continue;
        const double median = medianOf(values);
        std::vector<double> devs_abs;
        devs_abs.reserve(values.size());
        for (double v : values)
            devs_abs.push_back(std::abs(v - median));
        const double mad = medianOf(devs_abs);

        for (std::size_t i = 0; i < evaluable.size(); ++i) {
            const DeviceSeries *dev = evaluable[i];
            const double diff = std::abs(values[i] - median);
            // 0.6745 scales MAD to the stddev of a normal.
            const bool outlier = diff >= kMadMinAbs && mad > 0.0
                && 0.6745 * diff / mad > k_;
            State &st = state_[dev->device()];
            if (!st.active) {
                if (!outlier)
                    continue;
                st.active = true;
                st.clearStreak = 0;
                Alert a;
                a.rule = "cohort_outlier";
                a.kind = RuleKind::Threshold;
                a.severity = kMadSeverity;
                a.event = "fire";
                a.device = dev->device();
                a.cohort = dev->cohort();
                a.window = dev->latest()->window;
                a.tUs = tUs;
                a.value = values[i];
                a.threshold = median;
                out.push_back(std::move(a));
                continue;
            }
            if (outlier) {
                st.clearStreak = 0;
                continue;
            }
            if (++st.clearStreak < kClearWindows)
                continue;
            st.active = false;
            st.clearStreak = 0;
            Alert a;
            a.rule = "cohort_outlier";
            a.kind = RuleKind::Threshold;
            a.severity = kMadSeverity;
            a.event = "clear";
            a.device = dev->device();
            a.cohort = dev->cohort();
            a.window = dev->latest()->window;
            a.tUs = tUs;
            a.value = values[i];
            a.threshold = median;
            out.push_back(std::move(a));
        }
    }
}

} // namespace flash::mon
