/**
 * @file
 * Alert-engine tests: threshold hysteresis (no flapping at the
 * threshold), rate-of-change, stuck-at and budget-burn conditions,
 * per-device state isolation, and the MAD cohort outlier detector's
 * attribution.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mon/rules.hh"
#include "mon/timeseries.hh"
#include "util/json.hh"

namespace flash::mon
{
namespace
{

/** Synthesize the HealthRecord of one ssd window. */
HealthRecord
ssdRecord(int device, std::int64_t window, double retries_per_read,
          double refresh_queue = -1.0)
{
    std::string text = "{\"health\": \"ssd\", \"schema\": 2, "
                       "\"window\": "
        + std::to_string(window) + ", \"context\": \"fleet.worn\", "
        + "\"device\": " + std::to_string(device)
        + ", \"t_us\": " + std::to_string(100.0 * (window + 1))
        + ", \"reads\": 100, \"retries\": "
        + std::to_string(retries_per_read * 100.0)
        + ", \"senses\": 300, \"assists\": 0, \"retries_per_read\": "
        + std::to_string(retries_per_read);
    if (refresh_queue >= 0.0) {
        text += ", \"scrub_warm_fraction\": 0.5, "
                "\"scrub_refresh_queue\": "
            + std::to_string(refresh_queue)
            + ", \"scrub_warm_read_rate\": 0.5";
    }
    text += "}";
    HealthRecord rec;
    rec.kind = "ssd";
    rec.context = "fleet.worn";
    rec.device = device;
    rec.schema = 2;
    rec.window = window;
    rec.tUs = 100.0 * static_cast<double>(window + 1);
    rec.json = util::parseJson(text);
    return rec;
}

/** Feed a retry-rate series through one rule; return the events. */
std::vector<Alert>
runSeries(const AlertRule &rule, const std::vector<double> &values)
{
    DeviceSeries dev(0, 64);
    RuleEngine engine({rule});
    std::vector<Alert> events;
    std::int64_t w = 0;
    for (double v : values) {
        dev.addSsd(ssdRecord(0, w++, v));
        engine.onSample(dev, events);
    }
    return events;
}

AlertRule
retryThresholdRule()
{
    AlertRule r;
    r.name = "retry_high";
    r.metric = "retries_per_read";
    r.kind = RuleKind::Threshold;
    r.direction = Direction::Above;
    r.threshold = 2.0;
    r.severity = Severity::Warn;
    return r;
}

TEST(MonRules, ThresholdFiresOnRisingEdgeOnly)
{
    const std::vector<Alert> events =
        runSeries(retryThresholdRule(), {1.0, 3.0, 3.5, 4.0});
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].event, "fire");
    EXPECT_EQ(events[0].rule, "retry_high");
    EXPECT_EQ(events[0].device, 0);
    EXPECT_EQ(events[0].cohort, "worn");
    EXPECT_EQ(events[0].window, 1); // the breaching window
    EXPECT_DOUBLE_EQ(events[0].value, 3.0);
    EXPECT_EQ(events[0].severity, Severity::Warn);
}

TEST(MonRules, HysteresisPreventsFlappingAtTheThreshold)
{
    // Oscillating just around the threshold: one fire, no clear —
    // the clear band (threshold - 0.2 * max(|thr|, 1) = 1.6) is
    // never reached for two consecutive windows.
    const std::vector<Alert> events = runSeries(
        retryThresholdRule(),
        {3.0, 1.9, 2.1, 1.9, 2.1, 1.9, 2.1, 1.9});
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].event, "fire");
}

TEST(MonRules, ClearRequiresConsecutiveSafeWindows)
{
    // Drops below the clear band (1.6) once, bounces back above the
    // threshold (resetting the streak without re-firing), then stays
    // safe: the clear lands on the 2nd consecutive safe window.
    const std::vector<Alert> events = runSeries(
        retryThresholdRule(), {3.0, 1.0, 2.5, 1.0, 0.5, 0.5});
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].event, "fire");
    EXPECT_EQ(events[0].window, 0);
    EXPECT_EQ(events[1].event, "clear");
    EXPECT_EQ(events[1].window, 4); // second consecutive safe window
}

TEST(MonRules, ClearThenRefireSequence)
{
    // Breach, clear cleanly, breach again: fire / clear / fire.
    const std::vector<Alert> events = runSeries(
        retryThresholdRule(), {3.0, 0.5, 0.5, 3.5});
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].event, "fire");
    EXPECT_EQ(events[1].event, "clear");
    EXPECT_EQ(events[2].event, "fire");
    EXPECT_DOUBLE_EQ(events[2].value, 3.5);
}

TEST(MonRules, RateOfChangeFiresOnJump)
{
    AlertRule r;
    r.name = "retry_spike";
    r.metric = "retries_per_read";
    r.kind = RuleKind::RateOfChange;
    r.direction = Direction::Above;
    r.threshold = 1.0;
    r.lookback = 2;
    r.severity = Severity::Warn;
    // Flat, then a jump of 2.0 over 2 windows.
    const std::vector<Alert> events =
        runSeries(r, {0.5, 0.5, 0.5, 0.6, 2.5});
    ASSERT_GE(events.size(), 1u);
    EXPECT_EQ(events[0].event, "fire");
    EXPECT_EQ(events[0].window, 4);
    EXPECT_DOUBLE_EQ(events[0].value, 2.0); // 2.5 - 0.5
}

TEST(MonRules, StuckAtFiresWhilePinnedAndClearsOnMotion)
{
    AlertRule r;
    r.name = "queue_stuck";
    r.metric = "refresh_queue";
    r.kind = RuleKind::StuckAt;
    r.direction = Direction::Above;
    r.threshold = 0.0;
    r.lookback = 2;
    r.severity = Severity::Warn;

    DeviceSeries dev(0, 64);
    RuleEngine engine({r});
    std::vector<Alert> events;
    // Queue pinned at 7 for 4 windows, then drains.
    const std::vector<double> queue = {7.0, 7.0, 7.0, 7.0, 3.0};
    std::int64_t w = 0;
    for (double q : queue) {
        dev.addSsd(ssdRecord(0, w++, 0.5, q));
        engine.onSample(dev, events);
    }
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].event, "fire");
    EXPECT_EQ(events[0].window, 2); // lookback+1 identical windows
    EXPECT_DOUBLE_EQ(events[0].value, 7.0);
    EXPECT_EQ(events[1].event, "clear");
    EXPECT_EQ(events[1].window, 4); // cleared as soon as it moved
}

TEST(MonRules, BudgetBurnSumsTheLookback)
{
    AlertRule r;
    r.name = "retry_budget";
    r.metric = "retries";
    r.kind = RuleKind::BudgetBurn;
    r.direction = Direction::Above;
    r.threshold = 500.0;
    r.lookback = 3;
    r.severity = Severity::Critical;
    // retries = retries_per_read * 100 reads per window.
    const std::vector<Alert> events =
        runSeries(r, {1.0, 1.0, 1.0, 1.0, 4.0});
    ASSERT_GE(events.size(), 1u);
    EXPECT_EQ(events[0].event, "fire");
    EXPECT_EQ(events[0].window, 4);
    EXPECT_DOUBLE_EQ(events[0].value, 600.0); // 100 + 100 + 400
    EXPECT_EQ(events[0].severity, Severity::Critical);
}

TEST(MonRules, PerDeviceStateIsIsolated)
{
    DeviceSeries a(0, 64), b(1, 64);
    RuleEngine engine({retryThresholdRule()});
    std::vector<Alert> events;
    a.addSsd(ssdRecord(0, 0, 5.0));
    engine.onSample(a, events);
    b.addSsd(ssdRecord(1, 0, 0.5));
    engine.onSample(b, events);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].device, 0);
    EXPECT_EQ(engine.active().size(), 1u);
    EXPECT_EQ(engine.worstFired(), Severity::Warn);
    EXPECT_EQ(engine.fired(), 1u);
}

TEST(MonRules, MissingMetricDoesNotEvaluate)
{
    AlertRule r;
    r.name = "conf_low";
    r.metric = "model_confidence";
    r.kind = RuleKind::Threshold;
    r.direction = Direction::Below;
    r.threshold = 0.5;
    r.severity = Severity::Info;
    // No model fields in the records: the rule never fires even
    // though the default metric value (0.0) would breach Below 0.5.
    const std::vector<Alert> events = runSeries(r, {0.5, 0.5, 0.5});
    EXPECT_TRUE(events.empty());
}

TEST(MonRules, SeverityNamesRoundTrip)
{
    Severity s = Severity::Info;
    EXPECT_TRUE(parseSeverity("warn", s));
    EXPECT_EQ(s, Severity::Warn);
    EXPECT_TRUE(parseSeverity("critical", s));
    EXPECT_EQ(s, Severity::Critical);
    EXPECT_TRUE(parseSeverity("crit", s));
    EXPECT_EQ(s, Severity::Critical);
    EXPECT_TRUE(parseSeverity("info", s));
    EXPECT_EQ(s, Severity::Info);
    EXPECT_FALSE(parseSeverity("bogus", s));
    EXPECT_STREQ(severityName(Severity::Critical), "critical");
    EXPECT_STREQ(ruleKindName(RuleKind::BudgetBurn), "budget_burn");
}

TEST(MonRules, MadOutlierFlagsTheDivergingDevice)
{
    // Cohort of 8 devices: seven at ~0.5 retries/read, one at 6.0.
    FleetSeries fleet(64);
    for (int d = 0; d < 8; ++d) {
        const double v = d == 3 ? 6.0 : 0.5 + 0.01 * d;
        fleet.add(ssdRecord(d, 0, v));
    }
    OutlierDetector det(5.0);
    std::vector<Alert> events;
    det.evaluate(fleet, 1000.0, events);

    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].rule, "cohort_outlier");
    EXPECT_EQ(events[0].event, "fire");
    EXPECT_EQ(events[0].device, 3);
    EXPECT_EQ(events[0].cohort, "worn");
    EXPECT_DOUBLE_EQ(events[0].value, 6.0);

    // The outlier rejoins the pack: clears after two frames.
    for (int d = 0; d < 8; ++d)
        fleet.add(ssdRecord(d, 1, 0.5 + 0.01 * d));
    events.clear();
    det.evaluate(fleet, 2000.0, events);
    EXPECT_TRUE(events.empty()); // streak 1 of 2
    det.evaluate(fleet, 3000.0, events);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].event, "clear");
    EXPECT_EQ(events[0].device, 3);
}

TEST(MonRules, MadOutlierSkipsSmallCohorts)
{
    FleetSeries fleet(64);
    for (int d = 0; d < 3; ++d)
        fleet.add(ssdRecord(d, 0, d == 0 ? 9.0 : 0.5));
    OutlierDetector det(5.0);
    std::vector<Alert> events;
    det.evaluate(fleet, 1000.0, events);
    EXPECT_TRUE(events.empty());
}

} // namespace
} // namespace flash::mon
