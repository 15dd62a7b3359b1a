#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/characterization.hh"
#include "core/voltage_predictor.hh"
#include "ssd/health_monitor.hh"
#include "ssd/scrubber/scrubber.hh"
#include "ssd/ssd_sim.hh"
#include "trace/msr_workloads.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "test_support.hh"

namespace flash::ssd
{
namespace
{

std::vector<util::JsonValue>
parsedLines(const std::string &text)
{
    std::vector<util::JsonValue> records;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty())
            records.push_back(util::parseJson(line));
    }
    return records;
}

class HealthMonitorTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        chip = std::make_unique<nand::Chip>(test::mediumTlcGeometry(),
                                            nand::tlcVoltageParams(), 888);
        core::CharOptions opt;
        opt.sentinel.ratio = 0.01; // medium geometry: keep ~370 sentinels
        opt.wordlineStride = 4;
        const core::FactoryCharacterizer characterizer(opt);
        tables = std::make_unique<core::Characterization>(
            characterizer.run(*chip));
        overlay = core::makeOverlay(chip->geometry(), opt.sentinel);

        chip->programBlock(1, 9, overlay);
        chip->setPeCycles(1, 5000);
        chip->age(1, 8760.0, 25.0);
    }

    static void
    TearDownTestSuite()
    {
        tables.reset();
        chip.reset();
    }

    static std::unique_ptr<nand::Chip> chip;
    static std::unique_ptr<core::Characterization> tables;
    static nand::SentinelOverlay overlay;
};

std::unique_ptr<nand::Chip> HealthMonitorTest::chip;
std::unique_ptr<core::Characterization> HealthMonitorTest::tables;
nand::SentinelOverlay HealthMonitorTest::overlay;

TEST_F(HealthMonitorTest, ChipProbeIsDeterministicAndComplete)
{
    HealthMonitorOptions opt;
    opt.wlStride = 4;

    std::ostringstream a, b;
    {
        HealthMonitor monitor(a, opt);
        monitor.beginRun("probe");
        monitor.probeBlock(*chip, 1, *tables, overlay, nullptr,
                           123.0);
        EXPECT_EQ(monitor.records(), 1u);
    }
    {
        HealthMonitor monitor(b, opt);
        monitor.beginRun("probe");
        monitor.probeBlock(*chip, 1, *tables, overlay, nullptr,
                           123.0);
    }
    // The probe draws noise from its own read stream: reruns are
    // byte-identical and the chip under test is untouched.
    EXPECT_EQ(a.str(), b.str());

    const auto records = parsedLines(a.str());
    ASSERT_EQ(records.size(), 1u);
    const util::JsonValue &r = records[0];
    EXPECT_EQ(r.find("health")->string, "chip");
    EXPECT_EQ(r.find("context")->string, "probe");
    EXPECT_EQ(r.find("t_us")->number, 123.0);
    EXPECT_EQ(r.find("block")->number, 1.0);
    EXPECT_EQ(r.find("pe_cycles")->number, 5000.0);
    EXPECT_GT(r.find("retention_hours")->number, 0.0);
    EXPECT_GT(r.find("wordlines")->number, 0.0);
    EXPECT_GT(r.find("rber_mean")->number, 0.0);
    EXPECT_GE(r.find("rber_max")->number, r.find("rber_mean")->number);
    // Retention shifts voltages down: negative error difference.
    EXPECT_LT(r.find("d_rate_mean")->number, 0.0);
    ASSERT_NE(r.find("sentinel_offset_mean"), nullptr);
    const util::JsonValue *layers = r.find("layers");
    const util::JsonValue *offsets = r.find("layer_offset");
    ASSERT_NE(layers, nullptr);
    ASSERT_NE(offsets, nullptr);
    EXPECT_FALSE(layers->array.empty());
    EXPECT_EQ(layers->array.size(), offsets->array.size());
}

TEST(HealthMonitor, SsdSnapshotsFollowIntervalWithWindowedDeltas)
{
    std::ostringstream os;
    HealthMonitorOptions opt;
    opt.intervalUs = 100.0;
    HealthMonitor monitor(os, opt);
    util::MetricsRegistry m;

    monitor.beginRun("run");
    monitor.onRequest(0.0, m); // opens the window, no record yet
    EXPECT_EQ(monitor.records(), 0u);

    m.add("ssd.read.page_ops", 10);
    m.add("ssd.read.attempts", 30);
    m.add("ssd.read.sense_ops", 50);
    m.add("ssd.read.assist_reads", 5);
    monitor.onRequest(250.0, m); // crosses two interval boundaries
    EXPECT_EQ(monitor.records(), 2u);
    monitor.finishRun(m);
    EXPECT_EQ(monitor.records(), 3u);

    const auto records = parsedLines(os.str());
    ASSERT_EQ(records.size(), 3u);
    const util::JsonValue &first = records[0];
    EXPECT_EQ(first.find("health")->string, "ssd");
    EXPECT_EQ(first.find("schema")->number,
              HealthMonitor::kSchemaVersion);
    EXPECT_EQ(first.find("window")->number, 0.0);
    EXPECT_EQ(first.find("context")->string, "run");
    EXPECT_EQ(first.find("t_us")->number, 100.0);
    EXPECT_EQ(first.find("reads")->number, 10.0);
    // Raw window deltas next to the derived rates (schema 2).
    EXPECT_EQ(first.find("retries")->number, 20.0);
    EXPECT_EQ(first.find("senses")->number, 50.0);
    EXPECT_EQ(first.find("assists")->number, 5.0);
    EXPECT_EQ(first.find("retries_per_read")->number, 2.0);
    EXPECT_EQ(first.find("sense_ops_per_read")->number, 5.0);
    EXPECT_EQ(first.find("assist_reads_per_read")->number, 0.5);
    EXPECT_EQ(first.find("final"), nullptr);

    // Deltas reset between windows: the second window saw no reads.
    EXPECT_EQ(records[1].find("t_us")->number, 200.0);
    EXPECT_EQ(records[1].find("reads")->number, 0.0);
    EXPECT_EQ(records[1].find("window")->number, 1.0);

    const util::JsonValue &last = records[2];
    EXPECT_EQ(last.find("t_us")->number, 250.0);
    EXPECT_EQ(last.find("window")->number, 2.0);
    ASSERT_NE(last.find("final"), nullptr);
    EXPECT_EQ(last.find("final")->number, 1.0);
}

TEST(HealthMonitor, WindowIndexIsMonotoneAcrossRuns)
{
    // The window index survives beginRun(): a consumer can tell a
    // lost line (gap) from a process restart (index reset), because
    // only a genuine restart makes the index go backwards.
    std::ostringstream os;
    HealthMonitorOptions opt;
    opt.intervalUs = 100.0;
    HealthMonitor monitor(os, opt);
    util::MetricsRegistry m;

    monitor.beginRun("first");
    monitor.onRequest(0.0, m);
    m.add("ssd.read.page_ops", 2);
    monitor.finishRun(m);
    monitor.beginRun("second");
    monitor.onRequest(0.0, m);
    m.add("ssd.read.page_ops", 3);
    monitor.finishRun(m);

    const auto records = parsedLines(os.str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].find("window")->number, 0.0);
    EXPECT_EQ(records[0].find("context")->string, "first");
    EXPECT_EQ(records[1].find("window")->number, 1.0); // not reset
    EXPECT_EQ(records[1].find("context")->string, "second");
    // beginRun reset the delta baseline (to a fresh registry's
    // zero), not the index: the shared registry's full count shows.
    EXPECT_EQ(records[1].find("reads")->number, 5.0);
}

/** Whether @p record has a field whose name starts with @p prefix. */
bool
hasFieldWithPrefix(const util::JsonValue &record, const std::string &prefix)
{
    for (const auto &[key, value] : record.object) {
        if (key.compare(0, prefix.size(), prefix) == 0)
            return true;
    }
    return false;
}

TEST(HealthMonitor, ReportsLatencyPercentilesAndNoCacheRates)
{
    std::ostringstream os;
    HealthMonitor monitor(os);

    util::MetricsRegistry m;
    m.observe("ssd.read.request_latency_us", 50.0);
    m.observe("ssd.read.request_latency_us", 70.0);
    monitor.beginRun("run");
    monitor.finishRun(m);

    const auto records = parsedLines(os.str());
    ASSERT_EQ(records.size(), 1u);
    ASSERT_NE(records[0].find("read_p50_us"), nullptr);
    ASSERT_NE(records[0].find("read_p99_us"), nullptr);
    ASSERT_NE(records[0].find("read_p999_us"), nullptr);
    // Devices read no voltage cache, so snapshots carry no cache
    // rates; the measurement cache's counts live in metrics.json.
    EXPECT_FALSE(hasFieldWithPrefix(records[0], "cache_"));
}

TEST(HealthMonitor, ShortRunEmitsFinalPartialWindow)
{
    // Regression: a run far shorter than one snapshot interval must
    // still emit its final partial window (earlier drivers dropped
    // the tail when no boundary was ever crossed).
    std::ostringstream os;
    HealthMonitorOptions opt;
    opt.intervalUs = 1e6;
    HealthMonitor monitor(os, opt);
    util::MetricsRegistry m;

    monitor.beginRun("short");
    monitor.onRequest(0.0, m);
    m.add("ssd.read.page_ops", 3);
    monitor.onRequest(100.0, m);
    monitor.noteCompletion(250.0);
    monitor.finishRun(m);

    const auto records = parsedLines(os.str());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].find("t_us")->number, 250.0);
    EXPECT_EQ(records[0].find("reads")->number, 3.0);
    EXPECT_EQ(records[0].find("final")->number, 1.0);
}

TEST(HealthMonitor, DrainTailWindowsEmittedAfterLastArrival)
{
    // A deep queue keeps completing long after the last submission:
    // the drain tail gets its boundary snapshots and the final record
    // lands at the last completion, not the last arrival.
    std::ostringstream os;
    HealthMonitorOptions opt;
    opt.intervalUs = 100.0;
    HealthMonitor monitor(os, opt);
    util::MetricsRegistry m;

    monitor.beginRun("drain");
    monitor.onRequest(0.0, m);
    monitor.onRequest(50.0, m); // no boundary crossed yet
    monitor.noteCompletion(420.0);
    monitor.finishRun(m);

    // Boundaries at 100/200/300/400, final partial at 420.
    const auto records = parsedLines(os.str());
    ASSERT_EQ(records.size(), 5u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(records[i].find("t_us")->number, 100.0 * (i + 1));
        EXPECT_EQ(records[i].find("final"), nullptr);
    }
    EXPECT_EQ(records[4].find("t_us")->number, 420.0);
    EXPECT_EQ(records[4].find("final")->number, 1.0);
}

TEST(HealthMonitor, RejectsBadOptions)
{
    std::ostringstream os;
    HealthMonitorOptions bad_interval;
    bad_interval.intervalUs = 0.0;
    EXPECT_THROW(HealthMonitor(os, bad_interval), util::FatalError);
    HealthMonitorOptions bad_stride;
    bad_stride.wlStride = 0;
    EXPECT_THROW(HealthMonitor(os, bad_stride), util::FatalError);
}

TEST(HealthMonitor, SsdSimDrivesPeriodicSnapshots)
{
    std::ostringstream os;
    HealthMonitorOptions opt;
    opt.intervalUs = 50000.0;
    HealthMonitor monitor(os, opt);

    SsdConfig cfg;
    SsdTiming timing;
    FixedReadCost cost(2);
    SsdSim sim(cfg, timing, cost, 1);
    sim.setHealthMonitor(&monitor);

    monitor.beginRun("hm_0.fixed");
    sim.run(trace::generateTrace(trace::msrWorkload("hm_0"), 2000, 7));

    const auto records = parsedLines(os.str());
    ASSERT_GE(records.size(), 2u);
    EXPECT_EQ(monitor.records(), records.size());
    double prev = -1.0;
    for (const util::JsonValue &r : records) {
        EXPECT_EQ(r.find("health")->string, "ssd");
        ASSERT_NE(r.find("t_us"), nullptr);
        EXPECT_GE(r.find("t_us")->number, prev);
        prev = r.find("t_us")->number;
    }
    EXPECT_EQ(records.back().find("final")->number, 1.0);
}

/** Probe source that reports the same observation everywhere. */
class ConstantScrubDevice : public ScrubDevice
{
  public:
    ScrubProbe
    probe(int, int, std::uint64_t) override
    {
        ScrubProbe p;
        p.rber = 1e-4;
        p.sentinelOffset = -3;
        return p;
    }
};

/** "ssd" records of one SsdSim run, with @p scrub attached if set. */
std::vector<util::JsonValue>
scrubRunRecords(Scrubber *scrub, SimReport &report)
{
    SsdConfig cfg;
    cfg.channels = 2;
    cfg.chipsPerChannel = 1;
    cfg.diesPerChip = 1;
    cfg.planesPerDie = 2;
    cfg.blocksPerPlane = 32;
    cfg.pagesPerBlock = 64;
    cfg.pageKb = 4;
    cfg.overprovision = 0.2;

    // Sparse reads leave the idle plane time probes need.
    std::vector<trace::TraceRecord> trace;
    for (int i = 0; i < 400; ++i) {
        trace::TraceRecord r;
        r.timestampUs = i * 500.0;
        r.offsetBytes = static_cast<std::uint64_t>(i) * 4096;
        r.sizeBytes = 4096;
        r.isRead = true;
        trace.push_back(r);
    }

    std::ostringstream os;
    HealthMonitorOptions opt;
    opt.intervalUs = 50000.0;
    HealthMonitor monitor(os, opt);
    FixedReadCost cost(3, 1, 0);
    SsdSim sim(cfg, SsdTiming{}, cost, 1);
    sim.setHealthMonitor(&monitor);
    sim.attachScrubber(scrub);
    monitor.beginRun("scrub");
    report = sim.run(trace);
    return parsedLines(os.str());
}

TEST(HealthMonitor, SnapshotsReadTheSimulatedDevicesScrubberAndModel)
{
    ScrubberConfig scfg;
    scfg.intervalUs = 200.0;
    scfg.probeBudget = 16;
    ConstantScrubDevice device;
    core::VoltagePredictor model;
    Scrubber scrub(scfg, device, &model);
    SimReport with_scrub;
    const auto scrubbed = scrubRunRecords(&scrub, with_scrub);
    ASSERT_GE(scrubbed.size(), 2u);
    for (const util::JsonValue &r : scrubbed) {
        for (const char *key :
             {"scrub_probes", "scrub_refresh_done", "scrub_refresh_queue",
              "scrub_warm_fraction", "scrub_warm_read_rate",
              "model_observes",
              "model_mean_confidence", "model_confident_fraction",
              "ftl_free_frac"})
            EXPECT_NE(r.find(key), nullptr) << key;
        EXPECT_FALSE(hasFieldWithPrefix(r, "cache_"));
    }
    // The closing snapshot agrees with the run's own counters and
    // with the model the scrubber trained.
    const util::JsonValue &last = scrubbed.back();
    const std::uint64_t probes = with_scrub.metrics.counter("scrub.probes");
    EXPECT_GT(probes, 0u);
    EXPECT_EQ(last.find("scrub_probes")->number,
              static_cast<double>(probes));
    EXPECT_EQ(last.find("model_observes")->number,
              static_cast<double>(model.stats().observes));
    EXPECT_EQ(last.find("model_mean_confidence")->number,
              model.meanConfidence());
    EXPECT_GT(last.find("scrub_warm_fraction")->number, 0.0);

    SimReport without_scrub;
    const auto plain = scrubRunRecords(nullptr, without_scrub);
    ASSERT_GE(plain.size(), 2u);
    for (const util::JsonValue &r : plain) {
        EXPECT_NE(r.find("ftl_free_frac"), nullptr);
        EXPECT_FALSE(hasFieldWithPrefix(r, "scrub_"));
        EXPECT_FALSE(hasFieldWithPrefix(r, "model_"));
        EXPECT_FALSE(hasFieldWithPrefix(r, "cache_"));
    }
}

} // namespace
} // namespace flash::ssd
