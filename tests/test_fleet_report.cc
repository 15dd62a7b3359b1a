/**
 * @file
 * fleet_report library tests on hand-built fixtures with exactly
 * known tail attribution — top-K offender order, shares and cohort
 * rollups are asserted against arithmetic done by hand — plus the
 * robustness contract: malformed or truncated fleet/health lines are
 * skipped and counted, never fatal, and tampered files fail the
 * reconciliation gate with a diagnostic instead of passing silently.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ssd/fleet/fleet.hh"
#include "ssd/fleet/report.hh"
#include "util/json.hh"
#include "util/metrics.hh"

namespace flash
{
namespace
{

using namespace ssd::fleet;

util::LatencyHistogram
histOf(std::uint64_t n, double v, std::uint64_t m = 0, double w = 0.0)
{
    util::LatencyHistogram h;
    for (std::uint64_t i = 0; i < n; ++i)
        h.add(v);
    for (std::uint64_t i = 0; i < m; ++i)
        h.add(w);
    return h;
}

std::string
deviceLine(int id, const std::string &cohort,
           const util::LatencyHistogram &h, double p99)
{
    std::ostringstream os;
    os << "{\"fleet\": \"device\", \"device\": " << id
       << ", \"cohort\": \"" << cohort
       << "\", \"workload\": \"usr_0\", \"requests\": " << h.count()
       << ", \"read_p99_us\": " << util::jsonNumber(p99)
       << ", \"footprint_bytes\": 1024, \"read_latency\": ";
    h.writeBinsJson(os);
    os << "}";
    return os.str();
}

std::string
rollupLine(std::uint64_t devices, const util::LatencyHistogram &merged)
{
    std::ostringstream os;
    os << "{\"fleet\": \"rollup\", \"devices\": " << devices
       << ", \"requests\": " << merged.count()
       << ", \"read_latency\": ";
    merged.writeBinsJson(os);
    os << "}";
    return os.str();
}

/**
 * The concentrated-tail fixture, tail arithmetic by hand:
 *   device 0 "steady": 50 obs at 10 us
 *   device 1 "steady": 45 at 10 us + 5 at 5000 us
 *   device 2 "worn":   40 at 10 us + 10 at 8000 us
 * 150 observations; the p99 nearest rank is ceil(0.99*150) = 149 and
 * ranks 141..150 hold the ten 8000 us observations, so the p99 (and
 * p999, rank 150) bin is 8000's bin and the whole tail mass of 10 is
 * device 2's.
 */
std::string
concentratedFixture()
{
    const auto h0 = histOf(50, 10.0);
    const auto h1 = histOf(45, 10.0, 5, 5000.0);
    const auto h2 = histOf(40, 10.0, 10, 8000.0);
    util::LatencyHistogram merged;
    merged.merge(h0);
    merged.merge(h1);
    merged.merge(h2);
    std::ostringstream os;
    os << deviceLine(0, "steady", h0, 10.0) << '\n'
       << deviceLine(1, "steady", h1, 11.0) << '\n'
       << deviceLine(2, "worn", h2, 8000.0) << '\n'
       << rollupLine(3, merged) << '\n';
    return os.str();
}

TEST(FleetReport, ConcentratedTailAttributesToSingleOffender)
{
    std::istringstream is(concentratedFixture());
    const FleetReportData data = parseFleetLines(is);
    ASSERT_EQ(data.devices.size(), 3u);
    EXPECT_EQ(data.malformedLines, 0u);
    EXPECT_TRUE(data.haveRollup);
    EXPECT_EQ(data.rollupDevices, 3u);
    EXPECT_EQ(data.rollupRequests, 150u);

    const TailAttribution tail = attributeTail(data);
    EXPECT_EQ(tail.fleet.count(), 150u);
    EXPECT_EQ(tail.tail99, 10u);
    EXPECT_EQ(tail.tail999, 10u);
    // The p99 bin's midpoint clamps to the observed max: exactly 8000.
    EXPECT_DOUBLE_EQ(tail.p99Us, 8000.0);
    EXPECT_DOUBLE_EQ(tail.p999Us, 8000.0);

    // Top-K table: device 2 owns 100% of the tail; 0 and 1 tie at
    // zero and sort by id.
    ASSERT_EQ(tail.devices.size(), 3u);
    EXPECT_EQ(tail.devices[0].device, 2);
    EXPECT_EQ(tail.devices[0].tail99, 10u);
    EXPECT_EQ(tail.devices[0].tail999, 10u);
    EXPECT_DOUBLE_EQ(tail.devices[0].share99, 1.0);
    EXPECT_DOUBLE_EQ(tail.devices[0].share999, 1.0);
    EXPECT_EQ(tail.devices[1].device, 0);
    EXPECT_EQ(tail.devices[1].tail99, 0u);
    EXPECT_EQ(tail.devices[2].device, 1);
    EXPECT_EQ(tail.devicesForHalfTail, 1);
    EXPECT_EQ(tail.devicesFor90Tail, 1);

    // Cohorts in name order: steady (devices 0, 1) then worn.
    ASSERT_EQ(tail.cohorts.size(), 2u);
    EXPECT_EQ(tail.cohorts[0].cohort, "steady");
    EXPECT_EQ(tail.cohorts[0].devices, 2);
    EXPECT_EQ(tail.cohorts[0].requests, 100u);
    EXPECT_EQ(tail.cohorts[0].tail99, 0u);
    EXPECT_DOUBLE_EQ(tail.cohorts[0].share99, 0.0);
    EXPECT_DOUBLE_EQ(tail.cohorts[0].meanReadP99Us, 10.5);
    EXPECT_EQ(tail.cohorts[1].cohort, "worn");
    EXPECT_EQ(tail.cohorts[1].tail99, 10u);
    EXPECT_DOUBLE_EQ(tail.cohorts[1].share99, 1.0);

    EXPECT_EQ(checkReconciliation(data, tail), "");
}

TEST(FleetReport, SpreadTailSharesAreExactFractions)
{
    // device 0: 90 at 10 us + 10 at 1000 us; device 1: 95 + 5.
    // 200 observations, p99 rank 198 lands in 1000's bin: tail mass
    // 15, split 10:5.
    const auto h0 = histOf(90, 10.0, 10, 1000.0);
    const auto h1 = histOf(95, 10.0, 5, 1000.0);
    std::ostringstream os;
    os << deviceLine(0, "a", h0, 1000.0) << '\n'
       << deviceLine(1, "a", h1, 10.0) << '\n';
    std::istringstream is(os.str());
    const FleetReportData data = parseFleetLines(is);
    const TailAttribution tail = attributeTail(data);

    EXPECT_EQ(tail.tail99, 15u);
    ASSERT_EQ(tail.devices.size(), 2u);
    EXPECT_EQ(tail.devices[0].device, 0);
    EXPECT_EQ(tail.devices[0].tail99, 10u);
    EXPECT_DOUBLE_EQ(tail.devices[0].share99, 10.0 / 15.0);
    EXPECT_EQ(tail.devices[1].tail99, 5u);
    EXPECT_DOUBLE_EQ(tail.devices[1].share99, 5.0 / 15.0);
    // Device 0's 10 observations cover half the tail of 15; 90% needs
    // both devices.
    EXPECT_EQ(tail.devicesForHalfTail, 1);
    EXPECT_EQ(tail.devicesFor90Tail, 2);
    EXPECT_EQ(checkReconciliation(data, tail), "");

    // No rollup record in this file: the partition check alone gates.
    EXPECT_FALSE(data.haveRollup);
}

TEST(FleetReport, MalformedLinesAreSkippedAndCountedNeverFatal)
{
    const std::string good = concentratedFixture();
    // Corrupt the stream: keep device 0 intact, truncate device 1
    // mid-record, then append assorted garbage around device 2 and
    // the rollup.
    std::istringstream split(good);
    std::string l0, l1, l2, lr;
    std::getline(split, l0);
    std::getline(split, l1);
    std::getline(split, l2);
    std::getline(split, lr);

    std::ostringstream os;
    os << l0 << '\n'
       << l1.substr(0, l1.size() / 2) << '\n' // truncated JSON
       << "not json at all\n"                 // garbage
       << "{\"fleet\": \"device\", \"device\": 7, \"requests\": 4, "
          "\"read_latency\": null}\n" // missing cohort
       << "{\"fleet\": \"device\", \"device\": \"x\", \"cohort\": "
          "\"a\", \"requests\": 1, \"read_latency\": null}\n" // bad type
       << l2 << '\n'
       << l0 << '\n'                       // duplicate device id 0
       << "{\"health\": \"snapshot\"}\n"   // foreign record: ignored
       << "   \n"                          // blank: neither
       << lr << '\n';
    std::istringstream is(os.str());
    const FleetReportData data = parseFleetLines(is);

    EXPECT_EQ(data.devices.size(), 2u); // devices 0 and 2 survive
    EXPECT_EQ(data.devices[0].device, 0);
    EXPECT_EQ(data.devices[1].device, 2);
    EXPECT_EQ(data.malformedLines, 4u); // truncated, garbage, two
                                        // field errors
    EXPECT_EQ(data.duplicateLines, 1u); // repeated device id 0
    EXPECT_EQ(data.ignoredLines, 1u);
    EXPECT_TRUE(data.haveRollup);

    // Attribution still works over the survivors; the reconciliation
    // gate reports the loss instead of passing.
    const TailAttribution tail = attributeTail(data);
    EXPECT_EQ(tail.fleet.count(), 100u);
    const std::string mismatch = checkReconciliation(data, tail);
    EXPECT_NE(mismatch, "");
    EXPECT_NE(mismatch.find("devices"), std::string::npos);
}

TEST(FleetReport, NullLatencyMeansEmptyHistogram)
{
    std::istringstream is(
        "{\"fleet\": \"device\", \"device\": 0, \"cohort\": \"a\", "
        "\"requests\": 0, \"read_latency\": null}\n");
    const FleetReportData data = parseFleetLines(is);
    ASSERT_EQ(data.devices.size(), 1u);
    EXPECT_EQ(data.malformedLines, 0u);
    EXPECT_EQ(data.devices[0].latency.count(), 0u);
    const TailAttribution tail = attributeTail(data);
    EXPECT_EQ(tail.bin99, -1);
    EXPECT_EQ(tail.tail99, 0u);
    EXPECT_EQ(checkReconciliation(data, tail), "");
}

TEST(FleetReport, ReconciliationDetectsTamperedRollup)
{
    const auto h0 = histOf(50, 10.0, 2, 900.0);
    const auto h1 = histOf(50, 10.0, 3, 900.0);
    util::LatencyHistogram partial; // "forgot" device 1: bins differ
    partial.merge(h0);
    std::ostringstream os;
    os << deviceLine(0, "a", h0, 900.0) << '\n'
       << deviceLine(1, "a", h1, 900.0) << '\n'
       << rollupLine(2, partial) << '\n';
    std::istringstream is(os.str());
    const FleetReportData data = parseFleetLines(is);
    const TailAttribution tail = attributeTail(data);
    const std::string mismatch = checkReconciliation(data, tail);
    EXPECT_NE(mismatch, "");
    EXPECT_NE(mismatch.find("count"), std::string::npos);
}

TEST(FleetReport, RoundTripFromRealFleetRunReconciles)
{
    // End-to-end over genuine bench output: run a small fleet, write
    // the JSON lines, read them back, attribute, reconcile.
    FleetConfig cfg;
    cfg.devices = 6;
    cfg.seed = 3;
    cfg.requests = 30;
    cfg.timing.readBaseUs = 5.0;
    cfg.timing.decodeUs = 2.0;
    FixedFleetEnv env(ssd::FixedReadCost(5, 3, 1));
    const FleetResult fleet = runFleet(cfg, env, 2);

    std::stringstream lines;
    writeFleetJsonLines(fleet, lines);
    const FleetReportData data = parseFleetLines(lines);
    ASSERT_EQ(data.devices.size(), 6u);
    EXPECT_EQ(data.malformedLines, 0u);
    EXPECT_TRUE(data.haveRollup);
    const TailAttribution tail = attributeTail(data);
    EXPECT_EQ(checkReconciliation(data, tail), "");

    // And the printed report renders without incident.
    std::ostringstream report;
    printReport(report, data, tail, 4);
    EXPECT_NE(report.str().find("top offenders"), std::string::npos);
    std::ostringstream json;
    writeReportJson(json, data, tail);
    EXPECT_NO_THROW(util::parseJson(json.str()));
}

TEST(FleetReport, RollupCountersComeBackFromRealRun)
{
    FleetConfig cfg;
    cfg.devices = 4;
    cfg.seed = 3;
    cfg.requests = 30;
    cfg.timing.readBaseUs = 5.0;
    cfg.timing.decodeUs = 2.0;
    FixedFleetEnv env(ssd::FixedReadCost(5, 3, 1));
    const FleetResult fleet = runFleet(cfg, env, 2);

    std::stringstream lines;
    writeFleetJsonLines(fleet, lines);
    const FleetReportData data = parseFleetLines(lines);
    ASSERT_TRUE(data.haveRollup);
    ASSERT_FALSE(data.rollupCounters.empty());
    // The parsed counters are the rollup registry's, bit for bit.
    for (const char *name :
         {"fleet.ssd.read.page_ops", "fleet.ssd.read.attempts",
          "fleet.ssd.read.sense_ops", "fleet.ssd.read.assist_reads"}) {
        ASSERT_TRUE(data.rollupCounters.count(name)) << name;
        EXPECT_EQ(data.rollupCounters.at(name),
                  fleet.rollup.counter(name))
            << name;
    }
}

TEST(FleetReport, UnknownFieldsAreIgnoredForwardCompat)
{
    // A future writer may add fields to any record; today's parser
    // must read around them without miscounting.
    std::istringstream split(concentratedFixture());
    std::ostringstream os;
    std::string line;
    while (std::getline(split, line)) {
        line.insert(line.size() - 1,
                    ", \"future_field\": {\"nested\": [1, 2]}, "
                    "\"schema\": 99");
        os << line << '\n';
    }
    std::istringstream is(os.str());
    const FleetReportData data = parseFleetLines(is);
    EXPECT_EQ(data.devices.size(), 3u);
    EXPECT_EQ(data.malformedLines, 0u);
    EXPECT_EQ(data.duplicateLines, 0u);
    EXPECT_TRUE(data.haveRollup);
    const TailAttribution tail = attributeTail(data);
    EXPECT_EQ(checkReconciliation(data, tail), "");
}

TEST(FleetReport, JsonReportCarriesHygieneAndHealthCounts)
{
    // One malformed line, one foreign line, one duplicate device.
    std::istringstream split(concentratedFixture());
    std::string l0, l1, l2, lr;
    std::getline(split, l0);
    std::getline(split, l1);
    std::getline(split, l2);
    std::getline(split, lr);
    std::ostringstream fixture;
    fixture << l0 << '\n'
            << l1 << '\n'
            << "garbage\n"
            << "{\"span\": \"x\"}\n"
            << l1 << '\n' // duplicate device id
            << l2 << '\n'
            << lr << '\n';
    std::istringstream is(fixture.str());
    const FleetReportData data = parseFleetLines(is);
    const TailAttribution tail = attributeTail(data);

    HealthScan scan;
    scan.stats.records = 12;
    scan.stats.malformed = 3;
    scan.stats.ignored = 2;
    scan.devices = 4;
    scan.ordered = true;
    scan.modelRecords = 2;

    std::ostringstream json;
    writeReportJson(json, data, tail, &scan);
    const util::JsonValue v = util::parseJson(json.str());
    EXPECT_DOUBLE_EQ(v.find("malformed_lines")->number, 1.0);
    EXPECT_DOUBLE_EQ(v.find("ignored_lines")->number, 1.0);
    EXPECT_DOUBLE_EQ(v.find("duplicate_lines")->number, 1.0);
    const util::JsonValue *health = v.find("health");
    ASSERT_NE(health, nullptr);
    EXPECT_DOUBLE_EQ(health->find("lines")->number, 12.0);
    EXPECT_DOUBLE_EQ(health->find("malformed_lines")->number, 3.0);
    EXPECT_DOUBLE_EQ(health->find("ignored_lines")->number, 2.0);
    EXPECT_DOUBLE_EQ(health->find("devices")->number, 4.0);
    EXPECT_EQ(health->find("ordered")->type,
              util::JsonValue::Type::Bool);
    EXPECT_TRUE(health->find("ordered")->boolean);

    // Without a scan, the sub-object is absent.
    std::ostringstream bare;
    writeReportJson(bare, data, tail);
    EXPECT_EQ(util::parseJson(bare.str()).find("health"), nullptr);
}

/**
 * One health record of the schema HealthMonitor writes: a window
 * index, plus the raw window deltas when it is an ssd snapshot.
 */
std::string
healthLine(const std::string &kind, int device, int window,
           const std::string &extra = "")
{
    std::string line = "{\"health\": \"" + kind + "\", \"window\": "
        + std::to_string(window);
    if (device >= 0)
        line += ", \"device\": " + std::to_string(device);
    if (kind == "ssd")
        line += ", \"reads\": 1, \"retries\": 0, \"senses\": 1, "
                "\"assists\": 0";
    return line + extra + "}\n";
}

TEST(FleetReport, HealthScanCountsAndOrders)
{
    std::istringstream ordered(healthLine("ssd", 0, 0)
                               + healthLine("ssd", 0, 1)
                               + healthLine("probe", 1, 0)
                               + healthLine("ssd", 1, 1));
    HealthScan scan = scanHealth(ordered);
    EXPECT_EQ(scan.stats.records, 4u);
    EXPECT_EQ(scan.stats.malformed, 0u);
    EXPECT_EQ(scan.devices, 2u);
    EXPECT_TRUE(scan.ordered);

    // Device 0 resumes after device 1 began: the interleaving the
    // per-device buffers exist to prevent.
    std::istringstream interleaved(healthLine("ssd", 0, 0)
                                   + healthLine("ssd", 1, 0)
                                   + healthLine("ssd", 0, 1));
    scan = scanHealth(interleaved);
    EXPECT_EQ(scan.stats.records, 3u);
    EXPECT_FALSE(scan.ordered);

    std::istringstream messy(
        healthLine("ssd", 2, 0)
        + healthLine("ssd", -1, 0)     // no device id: bucket -1
        + "half a line {\"health\"\n"  // truncated: malformed
        + "{\"span\": \"other\"}\n"    // no health kind: ignored
        + "\n");
    scan = scanHealth(messy);
    EXPECT_EQ(scan.stats.records, 2u);
    EXPECT_EQ(scan.stats.malformed, 1u);
    EXPECT_EQ(scan.stats.ignored, 1u);
    EXPECT_EQ(scan.devices, 2u); // ids 2 and -1
}

TEST(FleetReport, HealthScanPicksUpModelConfidence)
{
    std::istringstream is(
        healthLine("ssd", 0, 0, ", \"model_mean_confidence\": 0.25")
        + healthLine("ssd", 0, 1, ", \"model_mean_confidence\": 0.75")
        + healthLine("chip", 1, 0, ", \"model_confidence\": 0.5")
        + healthLine("ssd", 2, 0));
    const HealthScan scan = scanHealth(is);
    EXPECT_EQ(scan.stats.records, 4u);
    EXPECT_EQ(scan.modelRecords, 3u);
    ASSERT_EQ(scan.modelConfidence.size(), 2u);
    EXPECT_DOUBLE_EQ(scan.modelConfidence.at(0), 0.75); // last wins
    EXPECT_DOUBLE_EQ(scan.modelConfidence.at(1), 0.5); // chip fallback
}

} // namespace
} // namespace flash
