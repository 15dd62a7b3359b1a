#include "mon/monitor.hh"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <utility>

#include "util/logging.hh"
#include "util/table.hh"

namespace flash::mon
{

void
MonitorConfig::validate() const
{
    util::fatalIf(frameIntervalUs <= 0.0,
                  "MonitorConfig: frameIntervalUs <= 0");
    util::fatalIf(topK < 1, "MonitorConfig: topK < 1");
    util::fatalIf(ringCapacity < 2, "MonitorConfig: ringCapacity < 2");
    for (const AlertRule &r : rules)
        r.validate();
}

std::vector<AlertRule>
defaultRules()
{
    std::vector<AlertRule> rules;
    {
        AlertRule r;
        r.name = "retry_rate_high";
        r.metric = "retries_per_read";
        r.kind = RuleKind::Threshold;
        r.direction = Direction::Above;
        r.threshold = 2.0;
        r.severity = Severity::Warn;
        rules.push_back(r);
    }
    {
        AlertRule r;
        r.name = "retry_rate_critical";
        r.metric = "retries_per_read";
        r.kind = RuleKind::Threshold;
        r.direction = Direction::Above;
        r.threshold = 4.0;
        r.severity = Severity::Critical;
        rules.push_back(r);
    }
    {
        AlertRule r;
        r.name = "retry_rate_spiking";
        r.metric = "retries_per_read";
        r.kind = RuleKind::RateOfChange;
        r.direction = Direction::Above;
        r.threshold = 1.5;
        r.lookback = 4;
        r.severity = Severity::Warn;
        rules.push_back(r);
    }
    {
        AlertRule r;
        r.name = "refresh_queue_stuck";
        r.metric = "refresh_queue";
        r.kind = RuleKind::StuckAt;
        r.direction = Direction::Above;
        r.threshold = 0.0;
        r.lookback = 4;
        r.severity = Severity::Warn;
        rules.push_back(r);
    }
    {
        AlertRule r;
        r.name = "retry_budget_burn";
        r.metric = "retries";
        r.kind = RuleKind::BudgetBurn;
        r.direction = Direction::Above;
        r.threshold = 5000.0;
        r.lookback = 8;
        r.severity = Severity::Critical;
        rules.push_back(r);
    }
    {
        AlertRule r;
        r.name = "model_confidence_low";
        r.metric = "model_confidence";
        r.kind = RuleKind::Threshold;
        r.direction = Direction::Below;
        r.threshold = 0.2;
        r.severity = Severity::Info;
        rules.push_back(r);
    }
    return rules;
}

FleetMonitor::FleetMonitor(MonitorConfig cfg, std::ostream &frames,
                           std::ostream *alerts)
    : cfg_(std::move(cfg)), frames_(frames), alerts_(alerts),
      follower_([this](const HealthRecord &rec) { onRecord(rec); }),
      series_(cfg_.ringCapacity),
      engine_(cfg_.rules.empty() ? defaultRules() : cfg_.rules),
      outliers_(cfg_.madK)
{
    cfg_.validate();
}

void
FleetMonitor::feed(std::string_view chunk)
{
    follower_.feed(chunk);
}

FollowStats
FleetMonitor::followStats() const
{
    return follower_.stats();
}

void
FleetMonitor::noteFired(const Alert &a)
{
    ++fired_;
    worst_ = std::max(worst_, a.severity);
}

void
FleetMonitor::emitAlerts(std::vector<Alert> &alerts)
{
    for (Alert &a : alerts) {
        if (a.event == "fire") {
            noteFired(a);
            active_[{a.rule, a.device}] = a;
        } else {
            active_.erase({a.rule, a.device});
        }
        if (alerts_ != nullptr) {
            writeAlertJson(*alerts_, a);
            *alerts_ << '\n';
        }
    }
    alerts.clear();
}

void
FleetMonitor::onRecord(const HealthRecord &rec)
{
    std::vector<Alert> alerts;
    const DeviceSeries *dev = series_.add(rec);
    if (dev != nullptr) {
        engine_.onSample(*dev, alerts);
        emitAlerts(alerts);
    }

    // The frame clock is the maximum simulated time seen so far; a
    // boundary crossing emits exactly one frame stamped with the
    // boundary time, so frames depend on stream content alone.
    simTUs_ = std::max(simTUs_, rec.tUs);
    const auto boundary =
        static_cast<std::int64_t>(simTUs_ / cfg_.frameIntervalUs);
    if (boundary > lastFrame_) {
        lastFrame_ = boundary;
        const double frameTUs =
            static_cast<double>(boundary) * cfg_.frameIntervalUs;
        if (cfg_.madEnabled) {
            outliers_.evaluate(series_, frameTUs, alerts);
            emitAlerts(alerts);
        }
        emitFrame(frameTUs);
    }
}

void
FleetMonitor::emitFrame(double frameTUs)
{
    ++frames_emitted_;
    frames_ << "== frame " << frames_emitted_ << "  t_us="
            << util::fmt(frameTUs, 0) << "  devices="
            << series_.devices().size() << " ==\n";

    // Cohort rollups (cohort-name order; ExactSum merge per cohort).
    std::map<std::string, ReadTotals> cohorts;
    std::map<std::string, int> cohortDevices;
    for (const auto &[id, dev] : series_.devices()) {
        (void)id;
        if (dev.latest() == nullptr)
            continue;
        cohorts[dev.cohort()].merge(dev.totals());
        ++cohortDevices[dev.cohort()];
    }
    util::TextTable rollup;
    rollup.header({"cohort", "devices", "windows", "reads",
                   "retries/read", "senses/read", "assists/read"});
    for (const auto &[cohort, totals] : cohorts) {
        const double reads = totals.reads.value();
        const double denom = reads > 0.0 ? reads : 1.0;
        rollup.row({cohort, util::fmtInt(cohortDevices[cohort]),
                    util::fmtInt(static_cast<std::int64_t>(
                        totals.windows)),
                    util::fmtInt(static_cast<std::int64_t>(reads)),
                    util::fmt(totals.retries.value() / denom, 4),
                    util::fmt(totals.senses.value() / denom, 4),
                    util::fmt(totals.assists.value() / denom, 4)});
    }
    rollup.print(frames_);

    // Top offenders by latest-window retry rate (ties: device id).
    std::vector<const DeviceSeries *> devs;
    for (const auto &[id, dev] : series_.devices()) {
        (void)id;
        if (dev.latest() != nullptr)
            devs.push_back(&dev);
    }
    std::stable_sort(devs.begin(), devs.end(),
                     [](const DeviceSeries *a, const DeviceSeries *b) {
                         const double ra = a->latest()->retriesPerRead;
                         const double rb = b->latest()->retriesPerRead;
                         if (ra != rb)
                             return ra > rb;
                         return a->device() < b->device();
                     });
    if (devs.size() > static_cast<std::size_t>(cfg_.topK))
        devs.resize(static_cast<std::size_t>(cfg_.topK));
    frames_ << "top offenders by retries/read (latest window):\n";
    util::TextTable top;
    top.header({"device", "cohort", "window", "retries/read",
                "senses/read", "read_p99_us"});
    for (const DeviceSeries *dev : devs) {
        const WindowSample &s = *dev->latest();
        top.row({util::fmtInt(dev->device()), dev->cohort(),
                 util::fmtInt(s.window),
                 util::fmt(s.retriesPerRead, 4),
                 util::fmt(s.sensesPerRead, 4),
                 s.haveLatency ? util::fmt(s.readP99Us, 2) : "n/a"});
    }
    top.print(frames_);

    // Active alerts, keyed order (rule name, then device id).
    frames_ << "active alerts (" << active_.size() << "):\n";
    if (!active_.empty()) {
        util::TextTable tbl;
        tbl.header({"severity", "rule", "device", "cohort", "window",
                    "value", "threshold"});
        for (const auto &[key, a] : active_) {
            (void)key;
            tbl.row({severityName(a.severity), a.rule,
                     util::fmtInt(a.device), a.cohort,
                     util::fmtInt(a.window), util::fmt(a.value, 4),
                     util::fmt(a.threshold, 4)});
        }
        tbl.print(frames_);
    }
    frames_ << "\n";
}

void
FleetMonitor::finish()
{
    if (finished_)
        return;
    finished_ = true;
    follower_.finish();

    // A closing frame so short streams still render at least once.
    if (!series_.devices().empty()) {
        std::vector<Alert> alerts;
        if (cfg_.madEnabled) {
            outliers_.evaluate(series_, simTUs_, alerts);
            emitAlerts(alerts);
        }
        emitFrame(simTUs_);
    }

    const FollowStats st = follower_.stats();
    const ReadTotals totals = series_.rollup();
    util::banner(frames_, "monitor summary");
    util::TextTable tbl;
    tbl.header({"quantity", "value"});
    tbl.row({"lines", util::fmtInt(static_cast<std::int64_t>(st.lines))});
    tbl.row({"health records",
             util::fmtInt(static_cast<std::int64_t>(st.records))});
    tbl.row({"malformed lines",
             util::fmtInt(static_cast<std::int64_t>(st.malformed))});
    tbl.row({"ignored lines",
             util::fmtInt(static_cast<std::int64_t>(st.ignored))});
    tbl.row({"truncated tail",
             util::fmtInt(static_cast<std::int64_t>(st.truncatedTail))});
    tbl.row({"window gaps",
             util::fmtInt(static_cast<std::int64_t>(st.gaps))});
    tbl.row({"missed windows",
             util::fmtInt(static_cast<std::int64_t>(st.missedWindows))});
    tbl.row({"restarts",
             util::fmtInt(static_cast<std::int64_t>(st.restarts))});
    tbl.row({"devices", util::fmtInt(static_cast<std::int64_t>(
                            series_.devices().size()))});
    tbl.row({"windows", util::fmtInt(static_cast<std::int64_t>(
                            totals.windows))});
    tbl.row({"reads", util::fmtInt(static_cast<std::int64_t>(
                          totals.reads.value()))});
    tbl.row({"retries", util::fmtInt(static_cast<std::int64_t>(
                            totals.retries.value()))});
    tbl.row({"sense ops", util::fmtInt(static_cast<std::int64_t>(
                              totals.senses.value()))});
    tbl.row({"assist reads", util::fmtInt(static_cast<std::int64_t>(
                                 totals.assists.value()))});
    tbl.row({"exact deltas", totals.exact ? "yes" : "no"});
    tbl.row({"frames", util::fmtInt(static_cast<std::int64_t>(
                           frames_emitted_))});
    tbl.row({"alerts fired",
             util::fmtInt(static_cast<std::int64_t>(fired_))});
    tbl.row({"worst severity",
             fired_ > 0 ? severityName(worst_) : "none"});
    tbl.print(frames_);
}

std::string
FleetMonitor::reconcile(
    const std::map<std::string, std::uint64_t> &counters) const
{
    return reconcileReadTotals(series_.rollup(), counters);
}

} // namespace flash::mon
