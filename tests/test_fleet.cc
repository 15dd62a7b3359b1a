/**
 * @file
 * Fleet-driver tests: byte-identity of every artifact across thread
 * counts and evaluation orders, exact degeneracy of a single-device
 * fleet to a direct frontend run, rollup exactness against manual
 * merges, health-line integrity (no interleaved partial lines) and
 * footprint reporting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "mon/health_follow.hh"
#include "mon/rules.hh"
#include "mon/timeseries.hh"
#include "ssd/fleet/fleet.hh"
#include "ssd/fleet/report.hh"
#include "ssd/health_monitor.hh"
#include "ssd/host_frontend.hh"
#include "ssd/ssd_sim.hh"
#include "trace/msr_workloads.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace flash
{
namespace
{

using namespace ssd;
using namespace ssd::fleet;

/** A small, fast fleet configuration shared by the tests. */
FleetConfig
testConfig(int devices, bool health = false, bool scrub = false)
{
    FleetConfig cfg;
    cfg.devices = devices;
    cfg.seed = 42;
    cfg.requests = 40;
    cfg.timing.readBaseUs = 5.0;
    cfg.timing.decodeUs = 2.0;
    if (health)
        cfg.healthIntervalUs = 50000.0;
    if (scrub) {
        // Short interval so even a 40-request run takes scrub ticks.
        cfg.scrub.intervalUs = 50.0;
        cfg.scrub.probeBudget = 8;
    }
    return cfg;
}

/** Every serialized artifact of one fleet run, concatenated. */
std::string
artifacts(const FleetResult &fleet)
{
    std::ostringstream os;
    writeFleetJsonLines(fleet, os);
    os << fleet.rollup.toJson() << '\n';
    writeHealthLines(fleet, os);
    return os.str();
}

TEST(Fleet, ProfilesAreDeterministicAndCohortTagged)
{
    const FleetConfig cfg = testConfig(32);
    const auto a = drawProfiles(cfg);
    const auto b = drawProfiles(cfg);
    ASSERT_EQ(a.size(), 32u);
    const auto cohorts = defaultCohorts();
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].device, static_cast<int>(i));
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].peCycles, b[i].peCycles);
        ASSERT_GE(a[i].cohort, 0);
        ASSERT_LT(a[i].cohort,
                  static_cast<int>(cohorts.size()));
        const CohortSpec &c =
            cohorts[static_cast<std::size_t>(a[i].cohort)];
        EXPECT_EQ(a[i].cohortName, c.name);
        EXPECT_GE(a[i].peCycles, c.peMin);
        EXPECT_LE(a[i].peCycles, c.peMax);
        EXPECT_GE(a[i].retentionHours, c.retentionHoursMin);
        EXPECT_LE(a[i].retentionHours, c.retentionHoursMax);
    }
}

TEST(Fleet, ByteIdenticalAcrossThreadCounts)
{
    // The tentpole guarantee: stdout-equivalent artifacts (fleet
    // lines, rollup JSON, health lines) identical at --threads 1/2/4,
    // with scrubbing and health telemetry on.
    const FleetConfig cfg = testConfig(10, true, true);
    FixedFleetEnv env(FixedReadCost(5, 3, 1), FixedReadCost(1));

    const FleetResult t1 = runFleet(cfg, env, 1);
    const FleetResult t2 = runFleet(cfg, env, 2);
    const FleetResult t4 = runFleet(cfg, env, 4);
    const std::string a1 = artifacts(t1);
    EXPECT_EQ(a1, artifacts(t2));
    EXPECT_EQ(a1, artifacts(t4));
    EXPECT_GT(t1.rollup.counter("fleet.ssd.read.page_ops"), 0u);
    // Closed-loop queues leave no idle gaps, so probes may all be
    // dropped (non-intrusiveness contract); scans still prove the
    // scrubbers ran and their metrics merged.
    EXPECT_GT(t1.rollup.counter("fleet.scrub.scans"), 0u);
}

TEST(Fleet, InvariantToEvaluationOrder)
{
    FleetConfig cfg = testConfig(9, true);
    FixedFleetEnv env(FixedReadCost(4, 2, 0));
    const std::string identity = artifacts(runFleet(cfg, env, 2));

    util::Rng rng(7);
    cfg.order.resize(static_cast<std::size_t>(cfg.devices));
    for (int d = 0; d < cfg.devices; ++d)
        cfg.order[static_cast<std::size_t>(d)] = d;
    for (int perm = 0; perm < 3; ++perm) {
        for (std::size_t i = cfg.order.size(); i > 1; --i)
            std::swap(cfg.order[i - 1], cfg.order[rng.uniformInt(i)]);
        EXPECT_EQ(artifacts(runFleet(cfg, env, 2)), identity)
            << "perm " << perm;
    }
}

TEST(Fleet, SingleDeviceDegeneratesToDirectFrontendRun)
{
    // A fleet of one device is exactly one SsdSim + HostFrontend run
    // with the profile-derived seeds: same metrics bytes, same
    // percentiles.
    const FleetConfig cfg = testConfig(1);
    FixedFleetEnv env(FixedReadCost(5, 3, 1));
    const FleetResult fleet = runFleet(cfg, env, 1);
    ASSERT_EQ(fleet.devices.size(), 1u);
    const DeviceResult &dev = fleet.devices[0];

    const DeviceProfile p = drawProfiles(cfg)[0];
    const auto tr = trace::generateTrace(
        trace::msrWorkload(p.workload),
        static_cast<std::size_t>(cfg.requests), traceSeed(p));
    FixedReadCost cost(5, 3, 1);
    SsdSim sim(cfg.ssd, cfg.timing, cost, p.seed);
    HostFrontend frontend(frontendConfig(p), sim);
    const FrontendReport direct = frontend.run(tr);

    EXPECT_EQ(dev.requests, direct.requests);
    EXPECT_EQ(dev.makespanUs, direct.makespanUs);
    EXPECT_EQ(dev.readP50Us, direct.readP50Us);
    EXPECT_EQ(dev.readP99Us, direct.readP99Us);
    EXPECT_EQ(dev.readP999Us, direct.readP999Us);
    EXPECT_EQ(dev.metrics.toJson(), direct.device.metrics.toJson());
}

TEST(Fleet, DeviceLineDescribesOneReadPopulation)
{
    // A device line's read_latency bins and its read_p50/p99/p999_us
    // come from one histogram that holds reads only: on a mixed
    // read/write trace the bins count the device's read requests,
    // and each percentile is the bins' own nearest-rank percentile.
    FleetConfig cfg = testConfig(1);
    cfg.requests = 200;
    cfg.cohorts = {CohortSpec{}}; // usr_0: 60% reads
    FixedFleetEnv env(FixedReadCost(5, 3, 1));
    const FleetResult fleet = runFleet(cfg, env, 1);

    const DeviceProfile p = drawProfiles(cfg)[0];
    const auto tr = trace::generateTrace(
        trace::msrWorkload(p.workload),
        static_cast<std::size_t>(cfg.requests), traceSeed(p));
    const auto reads = static_cast<std::uint64_t>(std::count_if(
        tr.begin(), tr.end(),
        [](const trace::TraceRecord &r) { return r.isRead; }));
    ASSERT_GT(reads, 0u);
    ASSERT_LT(reads, tr.size());

    std::ostringstream os;
    writeFleetJsonLines(fleet, os);
    std::istringstream is(os.str());
    std::string device_line, rollup_line;
    ASSERT_TRUE(std::getline(is, device_line));
    ASSERT_TRUE(std::getline(is, rollup_line));
    const util::JsonValue dev = util::parseJson(device_line);
    const util::LatencyHistogram bins =
        util::LatencyHistogram::fromBinsJson(*dev.find("read_latency"));
    EXPECT_EQ(bins.count(), reads);
    EXPECT_EQ(dev.find("read_p50_us")->number, bins.percentile(0.50));
    EXPECT_EQ(dev.find("read_p99_us")->number, bins.percentile(0.99));
    EXPECT_EQ(dev.find("read_p999_us")->number, bins.percentile(0.999));

    const util::JsonValue rollup = util::parseJson(rollup_line);
    EXPECT_EQ(util::LatencyHistogram::fromBinsJson(
                  *rollup.find("read_latency"))
                  .count(),
              reads);
}

TEST(Fleet, RollupEqualsManualPrefixedMerge)
{
    const FleetConfig cfg = testConfig(6);
    FixedFleetEnv env(FixedReadCost(4, 2, 0));
    const FleetResult fleet = runFleet(cfg, env, 2);

    // Rebuild the rollup by hand in reverse device order: the merge
    // is exact, so the bytes must match the driver's.
    util::MetricsRegistry manual;
    std::uint64_t requests = 0;
    for (auto it = fleet.devices.rbegin(); it != fleet.devices.rend();
         ++it) {
        manual.mergePrefixed(it->metrics, "fleet.");
        manual.add("fleet.devices");
        requests += it->requests;
        manual.observe("fleet.device.read_p99_us", it->readP99Us);
    }
    manual.add("fleet.requests", requests);
    EXPECT_EQ(manual.toJson(), fleet.rollup.toJson());

    std::uint64_t page_ops = 0;
    for (const DeviceResult &d : fleet.devices)
        page_ops += d.metrics.counter("ssd.read.page_ops");
    EXPECT_EQ(fleet.rollup.counter("fleet.ssd.read.page_ops"), page_ops);
    EXPECT_EQ(fleet.rollup.counter("fleet.devices"),
              static_cast<std::uint64_t>(cfg.devices));
}

TEST(Fleet, HealthLinesAreCompleteTaggedAndOrdered)
{
    // The interleaving regression: concurrent devices must never
    // produce partial JSON lines. Buffered per-device monitors +
    // ordered flush means every line parses, carries its device id,
    // and per-device runs are contiguous in ascending id order.
    const FleetConfig cfg = testConfig(8, true);
    FixedFleetEnv env(FixedReadCost(4, 2, 0));
    const FleetResult fleet = runFleet(cfg, env, 4);

    std::ostringstream os;
    writeHealthLines(fleet, os);
    std::istringstream is(os.str());
    std::string line;
    int last_device = -1;
    std::uint64_t lines = 0;
    while (std::getline(is, line)) {
        ASSERT_FALSE(line.empty());
        const util::JsonValue v = util::parseJson(line); // throws if cut
        const util::JsonValue *dev = v.find("device");
        ASSERT_NE(dev, nullptr) << line;
        ASSERT_TRUE(dev->isNumber());
        const int id = static_cast<int>(dev->number);
        EXPECT_GE(id, last_device) << "device runs must be contiguous";
        last_device = std::max(last_device, id);
        ++lines;
    }
    EXPECT_GT(lines, 0u);

    std::istringstream scan_is(os.str());
    const HealthScan scan = scanHealth(scan_is);
    EXPECT_EQ(scan.stats.records, lines);
    EXPECT_EQ(scan.stats.malformed, 0u);
    EXPECT_EQ(scan.devices, 8u);
    EXPECT_TRUE(scan.ordered);
}

TEST(Fleet, HealthLinesCarryScrubStateWhenScrubbing)
{
    // Each device's snapshots read its own scrubber, so the monitor's
    // scrub rules (e.g. a stuck refresh queue) evaluate on fleets.
    const FleetConfig cfg = testConfig(4, true, true);
    FixedFleetEnv env(FixedReadCost(5, 3, 1), FixedReadCost(1));
    const FleetResult fleet = runFleet(cfg, env, 1);
    std::ostringstream os;
    writeHealthLines(fleet, os);

    std::size_t ssd_records = 0;
    mon::HealthFollower follower([&](const mon::HealthRecord &rec) {
        ASSERT_EQ(rec.kind, "ssd");
        EXPECT_NE(rec.json.find("scrub_warm_fraction"), nullptr);
        EXPECT_NE(rec.json.find("scrub_refresh_queue"), nullptr);
        mon::DeviceSeries series(rec.device, 2);
        series.addSsd(rec);
        double queue = -1.0;
        EXPECT_TRUE(
            mon::metricValue(*series.latest(), "refresh_queue", queue));
        EXPECT_GE(queue, 0.0);
        ++ssd_records;
    });
    follower.feed(os.str());
    follower.finish();
    EXPECT_EQ(follower.stats().malformed, 0u);
    EXPECT_GE(ssd_records, 4u);
}

TEST(Fleet, HealthMonitorStampsDeviceId)
{
    std::ostringstream os;
    HealthMonitorOptions opt;
    opt.intervalUs = 1000.0;
    opt.deviceId = 37;
    HealthMonitor monitor(os, opt);
    monitor.beginRun("tag");
    util::MetricsRegistry metrics;
    monitor.onRequest(0.0, metrics);
    monitor.finishRun(metrics);
    const util::JsonValue v = util::parseJson(os.str().substr(
        0, os.str().find('\n')));
    ASSERT_NE(v.find("device"), nullptr);
    EXPECT_EQ(v.find("device")->number, 37.0);
}

TEST(Fleet, FootprintIsReportedAndSmall)
{
    const FleetConfig cfg = testConfig(4);
    FixedFleetEnv env(FixedReadCost(3, 1, 0));
    const FleetResult fleet = runFleet(cfg, env, 1);
    for (const DeviceResult &d : fleet.devices) {
        EXPECT_GT(d.footprintBytes, 0u);
        // smallDeviceConfig: FTL tables + metrics stay well under 2 MiB.
        EXPECT_LT(d.footprintBytes, 2u << 20);
    }
    EXPECT_GE(fleet.maxFootprintBytes, fleet.totalFootprintBytes
                  / fleet.devices.size());
}

TEST(Fleet, ValidatesOrderPermutation)
{
    FleetConfig cfg = testConfig(4);
    FixedFleetEnv env(FixedReadCost(3, 1, 0));
    cfg.order = {0, 1, 2}; // wrong size
    EXPECT_THROW(runFleet(cfg, env, 1), util::FatalError);
    cfg.order = {0, 1, 2, 2}; // duplicate
    EXPECT_THROW(runFleet(cfg, env, 1), util::FatalError);
    cfg.order = {3, 1, 2, 0};
    EXPECT_NO_THROW(runFleet(cfg, env, 1));
}

TEST(Fleet, SyntheticScrubDeviceIsDeterministicAndWearScaled)
{
    DeviceProfile young;
    young.seed = 99;
    young.peCycles = 500;
    young.retentionHours = 100.0;
    DeviceProfile worn = young;
    worn.peCycles = 8000;
    worn.retentionHours = 17520.0;
    worn.tempC = 40.0;

    SyntheticScrubDevice a(young), b(young), w(worn);
    const ScrubProbe p1 = a.probe(1, 7, 0);
    const ScrubProbe p2 = b.probe(1, 7, 0);
    EXPECT_EQ(p1.rber, p2.rber);
    EXPECT_EQ(p1.sentinelOffset, p2.sentinelOffset);
    // New probe sequence redraws the noise.
    EXPECT_NE(a.probe(1, 7, 1).rber, p1.rber);
    // Worn devices probe strictly worse than young ones on average.
    double young_sum = 0.0, worn_sum = 0.0;
    for (std::uint64_t s = 0; s < 32; ++s) {
        young_sum += a.probe(0, 0, s).rber;
        worn_sum += w.probe(0, 0, s).rber;
    }
    EXPECT_GT(worn_sum, young_sum);
    EXPECT_LT(w.probe(0, 0, 0).sentinelOffset,
              a.probe(0, 0, 0).sentinelOffset);
}

} // namespace
} // namespace flash
