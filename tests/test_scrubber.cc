/**
 * @file
 * Background scrubber: config validation, byte-identity of disabled
 * scrubbing, idle-window-only probing, warm-read routing, voltage
 * cache re-warming, refresh migration through the FTL (invariants
 * intact), span well-formedness and run-to-run determinism — plus a
 * GC/host-I/O interleaving stress.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ssd/ftl/page_ftl.hh"
#include "ssd/scrubber/scrubber.hh"
#include "ssd/ssd_sim.hh"
#include "trace/span_analysis.hh"
#include "util/logging.hh"

namespace flash::ssd
{
namespace
{

SsdConfig
smallConfig()
{
    SsdConfig c;
    c.channels = 2;
    c.chipsPerChannel = 1;
    c.diesPerChip = 1;
    c.planesPerDie = 2;
    c.blocksPerPlane = 32;
    c.pagesPerBlock = 64;
    c.pageKb = 4;
    c.overprovision = 0.2;
    return c;
}

std::vector<trace::TraceRecord>
simpleTrace(int requests, bool reads, double gap_us, std::uint32_t size)
{
    std::vector<trace::TraceRecord> t;
    for (int i = 0; i < requests; ++i) {
        trace::TraceRecord r;
        r.timestampUs = i * gap_us;
        r.offsetBytes = static_cast<std::uint64_t>(i) * size;
        r.sizeBytes = size;
        r.isRead = reads;
        t.push_back(r);
    }
    return t;
}

/** Deterministic probe source with configurable observations. */
class FakeScrubDevice : public ScrubDevice
{
  public:
    explicit FakeScrubDevice(double rber = 1e-4, int offset = -3)
        : rber_(rber), offset_(offset)
    {}

    ScrubProbe
    probe(int plane, int block, std::uint64_t probe_seq) override
    {
        calls.push_back({plane, block});
        lastSeq = probe_seq;
        ScrubProbe p;
        p.rber = rber_;
        p.dRate = rber_;
        p.sentinelOffset = offset_;
        return p;
    }

    std::vector<std::pair<int, int>> calls;
    std::uint64_t lastSeq = 0;

  private:
    double rber_;
    int offset_;
};

ScrubberConfig
scrubConfig(double interval_us = 200.0, int budget = 64)
{
    ScrubberConfig c;
    c.intervalUs = interval_us;
    c.probeBudget = budget;
    c.warmUs = 1e9; // probed blocks stay warm for the whole run
    return c;
}

std::string
reportJson(const SimReport &r)
{
    std::ostringstream os;
    r.writeJson(os);
    return os.str();
}

TEST(ScrubberConfig, ValidateRejectsNonsense)
{
    ScrubberConfig c;
    EXPECT_NO_THROW(c.validate());
    EXPECT_TRUE(c.enabled());

    c = ScrubberConfig{};
    c.intervalUs = std::nan("");
    EXPECT_THROW(c.validate(), util::FatalError);

    c = ScrubberConfig{};
    c.warmUs = 0.0;
    EXPECT_THROW(c.validate(), util::FatalError);

    c = ScrubberConfig{};
    c.refreshRber = 0.0;
    EXPECT_THROW(c.validate(), util::FatalError);

    c = ScrubberConfig{};
    c.refreshPageBudget = -1;
    EXPECT_THROW(c.validate(), util::FatalError);

    // Zero interval or budget is a legal way to say "off".
    c = ScrubberConfig{};
    c.intervalUs = 0.0;
    EXPECT_NO_THROW(c.validate());
    EXPECT_FALSE(c.enabled());
    c = ScrubberConfig{};
    c.probeBudget = 0;
    EXPECT_NO_THROW(c.validate());
    EXPECT_FALSE(c.enabled());
}

TEST(Scrubber, DisabledScrubberIsByteIdenticalToNone)
{
    const auto tr = simpleTrace(300, true, 200.0, 4096);

    FixedReadCost cost(4);
    SsdSim plain(smallConfig(), SsdTiming{}, cost, 1);
    const std::string baseline = reportJson(plain.run(tr));

    for (const bool zero_interval : {true, false}) {
        ScrubberConfig cfg = scrubConfig();
        if (zero_interval)
            cfg.intervalUs = 0.0;
        else
            cfg.probeBudget = 0;
        FakeScrubDevice dev;
        core::VoltageCache cache;
        Scrubber scrub(cfg, dev, &cache);
        FixedReadCost warm(1);
        SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
        sim.attachScrubber(&scrub);
        sim.setWarmReadCost(&warm);
        EXPECT_EQ(reportJson(sim.run(tr)), baseline);
        EXPECT_TRUE(dev.calls.empty());
        EXPECT_EQ(cache.size(), 0u);
    }
}

TEST(Scrubber, ProbesFillIdleWindowsWithoutDelayingReads)
{
    const auto tr = simpleTrace(400, true, 500.0, 4096);

    FixedReadCost cost(4);
    SsdSim plain(smallConfig(), SsdTiming{}, cost, 1);
    FakeScrubDevice dev;
    Scrubber scrub(scrubConfig(), dev);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    sim.attachScrubber(&scrub); // no warm source: timing must not move

    // SsdSim::run() is exactly this submit() loop; driving it here
    // keeps each request's latency.
    std::vector<double> off_latency, on_latency;
    for (const trace::TraceRecord &req : tr) {
        off_latency.push_back(plain.submit(req, req.timestampUs)
                              - req.timestampUs);
        on_latency.push_back(sim.submit(req, req.timestampUs)
                             - req.timestampUs);
    }
    plain.finishRun();
    const SimReport on = sim.finishRun();

    const std::uint64_t probes = on.metrics.counter("scrub.probes");
    EXPECT_GT(probes, 0u);
    EXPECT_EQ(probes + on.metrics.counter("scrub.probe_skipped"),
              on.metrics.counter("scrub.scans") * 64);
    // Probes only ever used idle plane time, so every foreground read
    // latency is bit-identical to the scrub-off run.
    EXPECT_EQ(on_latency, off_latency);
}

TEST(Scrubber, WarmReadsSampleTheWarmCostSource)
{
    const auto tr = simpleTrace(400, true, 500.0, 4096);

    FixedReadCost cold(30);
    SsdSim plain(smallConfig(), SsdTiming{}, cold, 1);
    const SimReport off = plain.run(tr);

    FakeScrubDevice dev;
    Scrubber scrub(scrubConfig(100.0, 64), dev);
    FixedReadCost warm(2);
    SsdSim sim(smallConfig(), SsdTiming{}, cold, 1);
    sim.attachScrubber(&scrub);
    sim.setWarmReadCost(&warm);
    const SimReport on = sim.run(tr);

    EXPECT_GT(on.metrics.counter("scrub.read.warm"), 0u);
    EXPECT_EQ(on.metrics.counter("scrub.read.warm")
                  + on.metrics.counter("scrub.read.cold"),
              on.pageReads);
    // Warm reads sense 2 voltages instead of 30: the mean must drop.
    EXPECT_LT(on.readLatencyUs.mean(), off.readLatencyUs.mean());
}

TEST(Scrubber, ProbesRewarmTheVoltageCache)
{
    const auto tr = simpleTrace(200, true, 500.0, 4096);

    FakeScrubDevice dev(1e-4, -7);
    core::VoltageCache cache;
    Scrubber scrub(scrubConfig(), dev, &cache);
    FixedReadCost cost(4);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    sim.attachScrubber(&scrub);
    const SimReport rep = sim.run(tr);

    const std::uint64_t probes = rep.metrics.counter("scrub.probes");
    EXPECT_GT(probes, 0u);
    EXPECT_EQ(rep.metrics.counter("scrub.rewarms"), probes);
    EXPECT_EQ(cache.stats().rewarms, probes);
    EXPECT_GT(cache.size(), 0u);
    // Every cached entry carries the probe's inferred offset.
    EXPECT_EQ(cache.lookup(0, core::BlockEpoch{}).value_or(0), -7);
}

TEST(Scrubber, RefreshMigratesErasesAndKeepsFtlInvariants)
{
    // Every probe reports an RBER above threshold, so every fully
    // written block the cursor passes gets queued and, across the
    // run's idle windows, migrated and erased.
    const auto tr = simpleTrace(600, true, 2000.0, 4096);

    FakeScrubDevice dev(0.01, -3);
    ScrubberConfig cfg = scrubConfig(200.0, 64);
    cfg.refreshRber = 0.005;
    cfg.refreshPageBudget = 32;
    // Debug mode: the scrubber re-checks every FTL invariant after
    // each refresh step, so a refresh that corrupts the mapping
    // panics at the step that broke it, not at the end of the run.
    cfg.checkInvariants = true;
    Scrubber scrub(cfg, dev);
    FixedReadCost cost(4);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    sim.attachScrubber(&scrub);
    const SimReport rep = sim.run(tr);

    const util::MetricsRegistry &m = rep.metrics;
    EXPECT_GT(m.counter("scrub.refresh.queued"), 0u);
    EXPECT_GT(m.counter("scrub.refresh.pages"), 0u);
    EXPECT_GT(m.counter("scrub.refresh.erases"), 0u);
    EXPECT_GT(m.counter("scrub.refresh.completed"), 0u);
    // Refresh work is accounted like GC in the FTL, with its own
    // attribution on the side.
    EXPECT_EQ(m.counter("ftl.refresh_pages"),
              m.counter("scrub.refresh.pages"));
    EXPECT_EQ(m.counter("ftl.refresh_erases"),
              m.counter("scrub.refresh.erases"));
    EXPECT_GE(m.counter("ftl.migrated_pages"),
              m.counter("ftl.refresh_pages"));
    EXPECT_GE(m.counter("ftl.erases"), m.counter("ftl.refresh_erases"));

    EXPECT_NO_THROW(sim.ftl().checkInvariants());
    for (std::int64_t lpn = 0; lpn < sim.ftl().logicalPages(); ++lpn)
        ASSERT_TRUE(sim.ftl().translate(lpn).valid()) << "lpn " << lpn;
}

TEST(Scrubber, RunsAreDeterministic)
{
    const auto tr = simpleTrace(300, true, 700.0, 4096);

    const auto one_run = [&tr](std::string *spans_out) {
        FakeScrubDevice dev(0.01, -3);
        ScrubberConfig cfg = scrubConfig(150.0, 32);
        cfg.refreshRber = 0.005;
        core::VoltageCache cache;
        Scrubber scrub(cfg, dev, &cache);
        FixedReadCost cost(6);
        FixedReadCost warm(2);
        util::SpanTrace spans;
        SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
        sim.setSpanTrace(&spans);
        sim.attachScrubber(&scrub);
        sim.setWarmReadCost(&warm);
        const SimReport rep = sim.run(tr);
        std::ostringstream os;
        spans.writeJsonLines(os);
        *spans_out = os.str();
        return reportJson(rep);
    };

    std::string spans_a, spans_b;
    const std::string a = one_run(&spans_a);
    const std::string b = one_run(&spans_b);
    EXPECT_EQ(a, b);
    EXPECT_EQ(spans_a, spans_b);
}

TEST(Scrubber, ScrubAndRefreshSpansAreWellFormed)
{
    const auto tr = simpleTrace(400, true, 1500.0, 4096);

    FakeScrubDevice dev(0.01, -3);
    ScrubberConfig cfg = scrubConfig(200.0, 64);
    cfg.refreshRber = 0.005;
    Scrubber scrub(cfg, dev);
    FixedReadCost cost(4);
    util::SpanTrace spans;
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    sim.setSpanTrace(&spans);
    sim.attachScrubber(&scrub);
    const SimReport rep = sim.run(tr);

    std::ostringstream os;
    spans.writeJsonLines(os);
    std::istringstream is(os.str());
    const trace::TraceAnalysis a =
        trace::analyzeSpans(trace::parseSpanTrace(is));

    EXPECT_EQ(a.orphanCount, 0u);
    EXPECT_EQ(a.duplicateCount, 0u);
    EXPECT_TRUE(a.summaryMatches);
    EXPECT_EQ(a.droppedSpans, 0u);
    EXPECT_EQ(a.violationCount, 0u)
        << (a.violations.empty() ? "" : a.violations.front());
    ASSERT_TRUE(a.rootStats.count("scrub_op"));
    EXPECT_EQ(a.rootStats.at("scrub_op").at("count"),
              static_cast<double>(rep.metrics.counter("scrub.probes")));
    ASSERT_TRUE(a.rootStats.count("refresh_op"));
}

TEST(Scrubber, SurvivesGcAndHostWriteInterleaving)
{
    // Write-heavy overwrite pressure keeps GC erasing blocks out from
    // under the refresh queue while the scrubber keeps probing and
    // refreshing; the FTL must stay consistent throughout. Requests
    // arrive in bursts so the inter-burst idle leaves room for
    // maintenance (a saturated trace would simply starve the scrubber
    // — by design).
    std::vector<trace::TraceRecord> tr;
    const std::uint64_t span = 96ull * 4096;
    for (int i = 0; i < 12000; ++i) {
        trace::TraceRecord r;
        r.timestampUs = (i / 16) * 6000.0 + (i % 16) * 10.0;
        r.offsetBytes = (static_cast<std::uint64_t>(i) * 4096) % span;
        r.sizeBytes = 4096;
        r.isRead = (i % 4 == 0);
        tr.push_back(r);
    }

    FakeScrubDevice dev(0.01, -9);
    ScrubberConfig cfg = scrubConfig(300.0, 64);
    cfg.refreshRber = 0.005;
    cfg.checkInvariants = true; // panic at the corrupting step
    core::VoltageCache cache;
    Scrubber scrub(cfg, dev, &cache);
    FixedReadCost cost(4);
    FixedReadCost warm(1);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    sim.attachScrubber(&scrub);
    sim.setWarmReadCost(&warm);
    const SimReport rep = sim.run(tr);

    EXPECT_GT(rep.metrics.counter("ftl.gc_runs"), 0u);
    EXPECT_GT(rep.metrics.counter("scrub.probes"), 0u);
    EXPECT_NO_THROW(sim.ftl().checkInvariants());
    for (std::int64_t lpn = 0; lpn < sim.ftl().logicalPages(); ++lpn)
        ASSERT_TRUE(sim.ftl().translate(lpn).valid()) << "lpn " << lpn;
}

TEST(Scrubber, NoteEraseBeforeFirstScanIsSafe)
{
    FakeScrubDevice dev;
    core::VoltageCache cache;
    Scrubber scrub(scrubConfig(), dev, &cache);
    // A host write can trigger GC (and thus the erase hook) before
    // the first maintenance window ever initializes the scrubber.
    EXPECT_NO_THROW(scrub.noteErase(0, 0));
    EXPECT_FALSE(scrub.isWarm(0, 0, 0.0));
    EXPECT_EQ(scrub.warmFraction(0.0), 0.0);
    EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST(Scrubber, EraseDropsWarmthCacheEntryAndQueuedRefresh)
{
    SsdConfig config = smallConfig();
    SsdTiming timing;
    std::vector<double> plane_free(
        static_cast<std::size_t>(config.totalPlanes()), 0.0);
    PageFtl ftl(config);
    util::MetricsRegistry metrics;
    ScrubHost host;
    host.config = &config;
    host.timing = &timing;
    host.planeFree = &plane_free;
    host.ftl = &ftl;
    host.metrics = &metrics;

    FakeScrubDevice dev(0.01, -3);
    ScrubberConfig cfg = scrubConfig(100.0, 4);
    cfg.refreshRber = 0.005;
    cfg.refreshPageBudget = 0; // queue, but never execute
    core::VoltageCache cache;
    Scrubber scrub(cfg, dev, &cache);

    scrub.maintain(host, 1000.0); // several scans: blocks 0..N probed
    ASSERT_GT(metrics.counter("scrub.probes"), 0u);
    ASSERT_TRUE(scrub.isWarm(0, 0, 1000.0));
    ASSERT_TRUE(cache.lookup(0, core::BlockEpoch{}).has_value());
    ASSERT_GT(scrub.refreshQueueDepth(), 0u);

    scrub.noteErase(0, 0);
    EXPECT_FALSE(scrub.isWarm(0, 0, 1000.0));
    EXPECT_EQ(cache.stats().invalidations, 1u);
    EXPECT_FALSE(cache.lookup(0, core::BlockEpoch{}).has_value());
}

TEST(Scrubber, ModelUncertaintyOrdersProbesAwayFromConfidentBlocks)
{
    SsdConfig config = smallConfig();
    SsdTiming timing;

    const auto one_run = [&](core::VoltagePredictor *model,
                             util::MetricsRegistry *metrics) {
        // Fresh host state per run: the reproducibility check below
        // depends on the probe sequence being a function of the model
        // alone, not of plane-time charged by an earlier run.
        std::vector<double> plane_free(
            static_cast<std::size_t>(config.totalPlanes()), 0.0);
        PageFtl ftl(config);
        ScrubHost host;
        host.config = &config;
        host.timing = &timing;
        host.planeFree = &plane_free;
        host.ftl = &ftl;
        host.metrics = metrics;
        FakeScrubDevice dev(1e-4, -3);
        Scrubber scrub(scrubConfig(100.0, 4), dev, nullptr, model);
        scrub.maintain(host, 1000.0);
        EXPECT_GT(metrics->counter("scrub.probes"), 0u);
        if (model != nullptr) {
            EXPECT_EQ(metrics->counter("scrub.model.observes"),
                      metrics->counter("scrub.probes"));
        }
        return dev.calls;
    };

    // Block 5 is pre-trained past the confidence gate; every other
    // block has no data. The uncertainty ordering must spend the
    // budget on unprobed zero-confidence blocks (gid ascending) and
    // never reach the confident one.
    core::VoltageModelConfig mcfg;
    mcfg.chunkBlocks = 1;
    core::VoltagePredictor model(mcfg);
    for (int i = 0; i < 8; ++i) {
        core::BlockEpoch e;
        e.peCycles = 1000 + 100 * static_cast<std::uint32_t>(i);
        e.retentionHours = 24.0 * i;
        model.observe(5, e, -3);
    }
    ASSERT_TRUE(model.confidentBlock(5));

    util::MetricsRegistry metrics;
    const auto calls = one_run(&model, &metrics);
    ASSERT_GE(calls.size(), 4u);
    for (int gid = 0; gid < 4; ++gid) {
        EXPECT_EQ(calls[static_cast<std::size_t>(gid)],
                  (std::pair<int, int>{0, gid}));
    }
    for (const auto &[plane, block] : calls)
        EXPECT_FALSE(plane == 0 && block == 5);
    EXPECT_EQ(metrics.counter("scrub.model.observes"), calls.size());
    // Every probe fed the model on top of the pre-training.
    EXPECT_EQ(model.stats().observes, 8u + calls.size());

    // The probe sequence is a pure function of the model state: a
    // fresh identically-trained model reproduces it exactly.
    core::VoltagePredictor model_b(mcfg);
    for (int i = 0; i < 8; ++i) {
        core::BlockEpoch e;
        e.peCycles = 1000 + 100 * static_cast<std::uint32_t>(i);
        e.retentionHours = 24.0 * i;
        model_b.observe(5, e, -3);
    }
    util::MetricsRegistry metrics_b;
    EXPECT_EQ(one_run(&model_b, &metrics_b), calls);
}

} // namespace
} // namespace flash::ssd
