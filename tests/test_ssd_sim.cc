#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/read_policy.hh"
#include "ssd/ssd_sim.hh"
#include "util/json.hh"
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

TEST(SsdSim, ReadsCompleteWithPositiveLatency)
{
    FixedReadCost cost(4);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    const auto rep = sim.run(simpleTrace(100, true, 1000.0, 4096));
    EXPECT_EQ(rep.readLatencyUs.count(), 100u);
    EXPECT_GT(rep.readLatencyUs.min(), 0.0);
    EXPECT_EQ(rep.pageReads, 100u);
    EXPECT_EQ(rep.metrics.findHistogram("ssd.write.request_latency_us"),
              nullptr);
}

TEST(SsdSim, IdleSystemLatencyMatchesServiceTime)
{
    FixedReadCost cost(4);
    const SsdTiming t;
    const SsdConfig cfg = smallConfig();
    SsdSim sim(cfg, t, cost, 1);
    const auto rep = sim.run(simpleTrace(10, true, 1e6, 4096));
    const double service = (t.readBaseUs + t.decodeUs) + 4 * t.senseUs
        + cfg.pageKb * t.transferUsPerKb;
    EXPECT_NEAR(rep.readLatencyUs.mean(), service, 1e-6);
}

TEST(SsdSim, IdleLatencyAgreesWithSessionModel)
{
    // The chip-level and SSD-level paths must charge the same latency
    // for the same session cost (retry + assist read included) once
    // the transfer terms are aligned: attempts pay overhead + decode,
    // the assist read pays overhead only, senses via senseOps. The
    // closed-form session model charges one transfer; the simulator
    // transfers every attempt, so an idle sequential read is exactly
    // the session latency plus (attempts - 1) extra transfers.
    struct SessionCost : ReadCostSource
    {
        std::string name() const override { return "session"; }
        ReadCost sample(util::Rng &) override { return {2, 9, 1}; }
    };

    SessionCost cost;
    const SsdTiming t;
    const SsdConfig cfg = smallConfig();
    SsdSim sim(cfg, t, cost, 1);
    const auto rep = sim.run(simpleTrace(10, true, 1e6, 4096));

    core::ReadSessionResult s;
    s.attempts = 2;
    s.assistReads = 1;
    s.senseOps = 9;
    core::LatencyParams p;
    p.baseUs = t.readBaseUs;
    p.decodeUs = t.decodeUs;
    p.senseUs = t.senseUs;
    p.transferUs = cfg.pageKb * t.transferUsPerKb;
    EXPECT_NEAR(rep.readLatencyUs.mean(),
                core::sessionLatencyUs(s, p)
                    + (s.attempts - 1) * p.transferUs,
                1e-9);
}

TEST(SsdSim, MoreSensesMeansMoreLatency)
{
    FixedReadCost cheap(4);
    FixedReadCost expensive(30);
    SsdSim a(smallConfig(), SsdTiming{}, cheap, 1);
    SsdSim b(smallConfig(), SsdTiming{}, expensive, 1);
    const auto trace = simpleTrace(200, true, 300.0, 4096);
    EXPECT_LT(a.run(trace).readLatencyUs.mean(),
              b.run(trace).readLatencyUs.mean());
}

TEST(SsdSim, ContentionOnOnePlaneQueues)
{
    FixedReadCost cost(4);
    const SsdTiming t;
    SsdSim sim(smallConfig(), t, cost, 1);
    // Same page read back-to-back: same plane, zero gap.
    std::vector<trace::TraceRecord> trace;
    for (int i = 0; i < 50; ++i) {
        trace::TraceRecord r;
        r.timestampUs = 0.0;
        r.offsetBytes = 0;
        r.sizeBytes = 4096;
        r.isRead = true;
        trace.push_back(r);
    }
    const auto rep = sim.run(trace);
    // The last request waits behind 49 sense phases (the die is held
    // for sensing only; transfer and decode proceed off-plane).
    const double sense_phase = t.readBaseUs + 4 * t.senseUs;
    EXPECT_GT(rep.readLatencyUs.max(), 45 * sense_phase);
}

TEST(SsdSim, WritesProgramAndCount)
{
    FixedReadCost cost(4);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    const auto rep = sim.run(simpleTrace(50, false, 1000.0, 4096));
    const auto *writes =
        rep.metrics.findHistogram("ssd.write.request_latency_us");
    ASSERT_NE(writes, nullptr);
    EXPECT_EQ(writes->count(), 50u);
    EXPECT_EQ(rep.pageWrites, 50u);
    EXPECT_GE(writes->min(), SsdTiming{}.programUs);
}

TEST(SsdSim, MultiPageRequestsSplit)
{
    FixedReadCost cost(4);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    const auto rep = sim.run(simpleTrace(10, true, 1e5, 16384));
    EXPECT_EQ(rep.pageReads, 40u); // 16 KiB / 4 KiB pages
}

TEST(SsdSim, ReportCarriesPolicyName)
{
    FixedReadCost cost(4);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    const auto rep = sim.run(simpleTrace(5, true, 100.0, 4096));
    EXPECT_EQ(rep.policy, "fixed");
}

TEST(SsdSim, SustainedWritesTriggerGcEventually)
{
    FixedReadCost cost(4);
    SsdConfig cfg = smallConfig();
    SsdSim sim(cfg, SsdTiming{}, cost, 1);
    // Overwrite the hot start of the space far beyond raw capacity.
    std::vector<trace::TraceRecord> trace;
    const std::uint64_t span = 64ull * 4096;
    for (int i = 0; i < 30000; ++i) {
        trace::TraceRecord r;
        r.timestampUs = i * 10.0;
        r.offsetBytes = (static_cast<std::uint64_t>(i) * 4096) % span;
        r.sizeBytes = 4096;
        r.isRead = false;
        trace.push_back(r);
    }
    const auto rep = sim.run(trace);
    EXPECT_GT(rep.metrics.counter("ftl.gc_runs"), 0u);
}

TEST(SsdSim, ReportCarriesMetricsAndSerializes)
{
    FixedReadCost cost(4);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    const auto rep = sim.run(simpleTrace(100, true, 100.0, 4096));

    EXPECT_EQ(rep.metrics.counter("ssd.read.page_ops"), rep.pageReads);
    const auto *lat = rep.metrics.findHistogram("ssd.read.latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count(), rep.pageReads);
    ASSERT_NE(rep.metrics.findHistogram("ssd.read.queue_us"), nullptr);
    ASSERT_NE(rep.metrics.findHistogram("ssd.read.request_latency_us"),
              nullptr);

    std::ostringstream os;
    rep.writeJson(os);
    const auto doc = util::parseJson(os.str());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("policy")->string, "fixed");
    EXPECT_EQ(doc.find("page_reads")->number, 100.0);
    EXPECT_NE(doc.find("metrics"), nullptr);
}

TEST(SsdSim, SecondRunUpdatesItsOwnRegistry)
{
    // finishRun() moves the live registry into the report; the next
    // run's per-op updates must land in a fresh registry, not in the
    // first report's.
    FixedReadCost cost(4);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    const SimReport first = sim.run(simpleTrace(50, true, 100.0, 4096));
    const std::string first_json = first.metrics.toJson();

    // Submissions stay non-decreasing across runs on one device.
    auto mixed = simpleTrace(40, true, 100.0, 4096);
    for (std::size_t i = 0; i < mixed.size(); ++i) {
        mixed[i].timestampUs += 1.0e4;
        mixed[i].isRead = i % 2 != 0;
    }
    const SimReport second = sim.run(mixed);

    EXPECT_EQ(first.metrics.toJson(), first_json);
    EXPECT_EQ(first.metrics.counter("ssd.read.page_ops"), 50u);
    EXPECT_EQ(second.metrics.counter("ssd.read.page_ops"), 20u);
    EXPECT_EQ(second.metrics.counter("ssd.write.page_ops"), 20u);
    const auto *lat = second.metrics.findHistogram("ssd.read.latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count(), 20u);
    std::uint64_t per_channel = 0;
    for (int ch = 0; ch < smallConfig().channels; ++ch) {
        if (const auto *h = second.metrics.findHistogram(
                "ssd.read.queue_us.ch" + std::to_string(ch)))
            per_channel += h->count();
    }
    EXPECT_EQ(per_channel, 20u);
    EXPECT_TRUE(sim.metrics().counters().empty());
    EXPECT_TRUE(sim.metrics().histograms().empty());
}

TEST(SsdSim, ReportFieldsAreThisRunsRegistry)
{
    // readLatencyUs, pageReads and pageWrites are copies finishRun()
    // takes from the run's own registry: over two submit() ...
    // finishRun() runs on one device, each report matches its own
    // run's ssd.read.request_latency_us and page_ops, not the sum.
    FixedReadCost cost(4);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    auto first_trace = simpleTrace(60, true, 100.0, 8192);
    for (std::size_t i = 0; i < first_trace.size(); i += 3)
        first_trace[i].isRead = false;
    auto second_trace = simpleTrace(30, true, 150.0, 4096);
    for (std::size_t i = 0; i < second_trace.size(); ++i) {
        second_trace[i].timestampUs += 1.0e5;
        second_trace[i].isRead = i % 2 == 0;
    }

    std::vector<SimReport> reports;
    for (const auto *tr : {&first_trace, &second_trace}) {
        for (const trace::TraceRecord &req : *tr)
            sim.submit(req, req.timestampUs);
        reports.push_back(sim.finishRun());
    }

    const std::uint64_t expected_reads[] = {40, 15};
    for (std::size_t r = 0; r < reports.size(); ++r) {
        const SimReport &rep = reports[r];
        const auto *h =
            rep.metrics.findHistogram("ssd.read.request_latency_us");
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->count(), expected_reads[r]);
        EXPECT_EQ(rep.readLatencyUs.count(), h->count());
        EXPECT_EQ(rep.readLatencyUs.min(), h->min());
        EXPECT_EQ(rep.readLatencyUs.max(), h->max());
        EXPECT_EQ(rep.readLatencyUs.sum(), h->sum());
        EXPECT_EQ(rep.readLatencyUs.bins(), h->bins());
        EXPECT_EQ(rep.pageReads, rep.metrics.counter("ssd.read.page_ops"));
        EXPECT_EQ(rep.pageWrites,
                  rep.metrics.counter("ssd.write.page_ops"));
    }
    // 8 KiB requests are two pages; 4 KiB ones one.
    EXPECT_EQ(reports[0].pageReads, 80u);
    EXPECT_EQ(reports[0].pageWrites, 40u);
    EXPECT_EQ(reports[1].pageReads, 15u);
    EXPECT_EQ(reports[1].pageWrites, 15u);
}

TEST(SsdSim, SpanTraceRecordsEveryOperation)
{
    FixedReadCost cost(4);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    util::SpanTrace spans;
    sim.setSpanTrace(&spans);
    sim.run(simpleTrace(10, true, 100.0, 4096));

    // One "host_read" root per trace record, one "read_op" child per
    // page; every line (spans + summary) is valid JSON.
    std::ostringstream out;
    spans.writeJsonLines(out);
    std::istringstream lines(out.str());
    std::string line;
    int roots = 0, ops = 0;
    while (std::getline(lines, line)) {
        const auto doc = util::parseJson(line);
        ASSERT_TRUE(doc.isObject()) << line;
        if (const auto *cls = doc.find("span")) {
            roots += cls->string == "host_read";
            ops += cls->string == "read_op";
        }
    }
    EXPECT_EQ(roots, 10);
    EXPECT_EQ(ops, 10);
}

TEST(SsdSim, ConstructorRejectsBadOrganization)
{
    FixedReadCost cost(4);
    SsdConfig cfg = smallConfig();
    cfg.blocksPerPlane = 1; // GC needs a victim and an active block
    EXPECT_THROW(SsdSim(cfg, SsdTiming{}, cost, 1), util::FatalError);

    cfg = smallConfig();
    cfg.channels = 0;
    EXPECT_THROW(SsdSim(cfg, SsdTiming{}, cost, 1), util::FatalError);

    cfg = smallConfig();
    cfg.overprovision = 0.6;
    EXPECT_THROW(SsdSim(cfg, SsdTiming{}, cost, 1), util::FatalError);
}

TEST(SsdSim, ConstructorRejectsBadTiming)
{
    FixedReadCost cost(4);
    SsdTiming t;
    t.senseUs = 0.0;
    EXPECT_THROW(SsdSim(smallConfig(), t, cost, 1), util::FatalError);

    t = SsdTiming{};
    t.programUs = -1.0;
    EXPECT_THROW(SsdSim(smallConfig(), t, cost, 1), util::FatalError);

    t = SsdTiming{};
    t.transferUsPerKb = 0.0;
    EXPECT_THROW(SsdSim(smallConfig(), t, cost, 1), util::FatalError);

    // decodeUs = 0 is legal (an ECC-free device model).
    t = SsdTiming{};
    t.decodeUs = 0.0;
    EXPECT_NO_THROW(SsdSim(smallConfig(), t, cost, 1));
}

TEST(EmpiricalReadCost, SamplesFromGivenSet)
{
    std::vector<ReadCost> samples{{1, 4, 0}, {3, 12, 1}};
    EmpiricalReadCost src("test", samples);
    EXPECT_EQ(src.name(), "test");
    EXPECT_NEAR(src.meanRetries(), 1.0, 1e-9);
    EXPECT_NEAR(src.meanSenseOps(), 8.0, 1e-9);
    util::Rng rng(1);
    for (int i = 0; i < 20; ++i) {
        const ReadCost c = src.sample(rng);
        EXPECT_TRUE((c.attempts == 1 && c.senseOps == 4)
                    || (c.attempts == 3 && c.senseOps == 12));
    }
}

TEST(EmpiricalReadCost, EmptyFatal)
{
    EXPECT_THROW(EmpiricalReadCost("x", {}), util::FatalError);
}

} // namespace
} // namespace flash::ssd
