#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ssd/host_frontend.hh"
#include "ssd/ssd_sim.hh"
#include "trace/msr_workloads.hh"
#include "trace/span_analysis.hh"
#include "util/span_trace.hh"

namespace flash::ssd
{
namespace
{

SsdConfig
smallConfig(bool pipelined = false)
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
    c.pipelinedRetry = pipelined;
    return c;
}

std::vector<trace::TraceRecord>
readTrace(int requests)
{
    auto spec = trace::msrWorkload("usr_0");
    spec.readRatio = 1.0;
    return trace::generateTrace(spec,
                                static_cast<std::size_t>(requests), 11);
}

/** One frontend run serialized: report JSON + spans, for byte diffs. */
std::string
runFingerprint(const FrontendConfig &fcfg, bool pipelined,
               const std::vector<trace::TraceRecord> &tr)
{
    FixedReadCost cost(9, 3, 1); // 3 attempts: retries to pipeline
    SsdSim sim(smallConfig(pipelined), SsdTiming{}, cost, 1);
    util::SpanTrace spans;
    sim.setSpanTrace(&spans);
    HostFrontend frontend(fcfg, sim);
    const FrontendReport rep = frontend.run(tr);

    std::ostringstream os;
    rep.device.writeJson(os);
    os << '\n'
       << rep.requests << ' ' << rep.makespanUs << ' ' << rep.iops << ' '
       << rep.readP50Us << ' ' << rep.readP99Us << ' ' << rep.readP999Us
       << '\n';
    spans.writeJsonLines(os);
    return os.str();
}

TEST(HostFrontend, RunsEveryRequestAndReportsThroughput)
{
    FixedReadCost cost(4);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    FrontendConfig fcfg;
    fcfg.queues = 2;
    fcfg.queueDepth = 8;
    HostFrontend frontend(fcfg, sim);
    const auto rep = frontend.run(readTrace(200));

    EXPECT_EQ(rep.requests, 200u);
    EXPECT_EQ(rep.device.readLatencyUs.count(), 200u);
    EXPECT_GT(rep.iops, 0.0);
    EXPECT_GT(rep.makespanUs, 0.0);
    EXPECT_GT(rep.readP99Us, 0.0);
    EXPECT_GE(rep.readP999Us, rep.readP99Us);
    EXPECT_GE(rep.readP99Us, rep.readP50Us);
    EXPECT_EQ(rep.device.metrics.counter("frontend.requests"), 200u);
    ASSERT_NE(rep.device.metrics.findHistogram("frontend.queue_wait_us"),
              nullptr);
    ASSERT_NE(rep.device.metrics.findHistogram("frontend.read_latency_us"),
              nullptr);
}

TEST(HostFrontend, ByteIdenticalAcrossReruns)
{
    const auto tr = readTrace(300);
    FrontendConfig fcfg;
    fcfg.queues = 4;
    fcfg.queueDepth = 8;
    for (const bool pipelined : {false, true}) {
        const std::string a = runFingerprint(fcfg, pipelined, tr);
        const std::string b = runFingerprint(fcfg, pipelined, tr);
        EXPECT_EQ(a, b);
    }
}

TEST(HostFrontend, OpenModesAreDeterministicAndBackpressured)
{
    const auto tr = readTrace(200);
    for (const ArrivalMode mode :
         {ArrivalMode::OpenFixed, ArrivalMode::OpenPoisson}) {
        FrontendConfig fcfg;
        fcfg.queues = 2;
        fcfg.queueDepth = 2;
        fcfg.mode = mode;
        fcfg.ratePerQueueUs = 0.05; // well past device capacity
        fcfg.seed = 3;

        const std::string a = runFingerprint(fcfg, false, tr);
        const std::string b = runFingerprint(fcfg, false, tr);
        EXPECT_EQ(a, b);

        // Overdriven queues must hold requests back: host queue wait
        // shows up and the host-visible latency exceeds the device's.
        FixedReadCost cost(9, 3, 1);
        SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
        FrontendConfig fcfg2 = fcfg;
        HostFrontend frontend(fcfg2, sim);
        const auto rep = frontend.run(tr);
        const auto *wait =
            rep.device.metrics.findHistogram("frontend.queue_wait_us");
        ASSERT_NE(wait, nullptr);
        EXPECT_GT(wait->sum(), 0.0);
        const auto *host = rep.device.metrics.findHistogram(
            "frontend.read_latency_us");
        const auto *dev = rep.device.metrics.findHistogram(
            "ssd.read.request_latency_us");
        ASSERT_NE(host, nullptr);
        ASSERT_NE(dev, nullptr);
        EXPECT_GT(host->sum(), dev->sum());
    }
}

TEST(HostFrontend, DeeperQueuesRaiseThroughput)
{
    const auto tr = readTrace(400);
    FixedReadCost cost_a(4), cost_b(4);
    SsdSim shallow(smallConfig(), SsdTiming{}, cost_a, 1);
    SsdSim deep(smallConfig(), SsdTiming{}, cost_b, 1);

    FrontendConfig one;
    one.queues = 1;
    one.queueDepth = 1;
    FrontendConfig many;
    many.queues = 4;
    many.queueDepth = 16;

    const auto r1 = HostFrontend(one, shallow).run(tr);
    const auto r64 = HostFrontend(many, deep).run(tr);
    EXPECT_GT(r64.iops, r1.iops);
    // Deeper queues pile contention onto the same planes: the tail
    // grows even as throughput does.
    EXPECT_GE(r64.readP99Us, r1.readP99Us);
}

TEST(HostFrontend, PipelinedRetryNeverSlowerPerRequest)
{
    // Same submission sequence (SsdSim::run's submit() loop on one
    // trace), retries forced on every read: the pipelined device must
    // complete every request at or before the sequential one.
    FixedReadCost cost_s(12, 4, 1), cost_p(12, 4, 1);
    const auto tr = readTrace(500);
    SsdSim seq(smallConfig(false), SsdTiming{}, cost_s, 1);
    SsdSim pipe(smallConfig(true), SsdTiming{}, cost_p, 1);
    std::vector<double> seq_latency, pipe_latency;
    for (const trace::TraceRecord &req : tr) {
        seq_latency.push_back(seq.submit(req, req.timestampUs)
                              - req.timestampUs);
        pipe_latency.push_back(pipe.submit(req, req.timestampUs)
                               - req.timestampUs);
    }
    const auto rs = seq.finishRun();
    const auto rp = pipe.finishRun();

    ASSERT_EQ(seq_latency.size(), pipe_latency.size());
    for (std::size_t i = 0; i < seq_latency.size(); ++i)
        EXPECT_LE(pipe_latency[i], seq_latency[i] + 1e-9)
            << "request " << i;
    EXPECT_LT(rp.readLatencyUs.mean(), rs.readLatencyUs.mean());

    // The hidden stage time is accounted: overlap observed only by
    // the pipelined run.
    EXPECT_EQ(rs.metrics.findHistogram("ssd.read.overlap_us"), nullptr);
    const auto *overlap =
        rp.metrics.findHistogram("ssd.read.overlap_us");
    ASSERT_NE(overlap, nullptr);
    EXPECT_GT(overlap->sum(), 0.0);
}

TEST(HostFrontend, PipelinedLowersTailAtDepth)
{
    // The acceptance criterion's A/B: closed-loop frontend at QD >= 8,
    // retry-heavy cost, pipelined p99 below sequential p99.
    FixedReadCost cost_s(12, 4, 1), cost_p(12, 4, 1);
    const auto tr = readTrace(600);
    FrontendConfig fcfg;
    fcfg.queues = 4;
    fcfg.queueDepth = 4; // aggregate QD 16

    SsdSim seq(smallConfig(false), SsdTiming{}, cost_s, 1);
    SsdSim pipe(smallConfig(true), SsdTiming{}, cost_p, 1);
    const auto rs = HostFrontend(fcfg, seq).run(tr);
    const auto rp = HostFrontend(fcfg, pipe).run(tr);

    EXPECT_LT(rp.readP99Us, rs.readP99Us);
    EXPECT_GT(rp.iops, rs.iops);
}

TEST(HostFrontend, SequentialBreakdownSumsExactly)
{
    // Satellite invariant: with sequential retry the per-op stage
    // histograms sum to the latency histogram exactly — decomposing
    // attempts must not double-count queueing (the old lump model
    // charged (bus_start - flash_done) once per op, not per attempt).
    FixedReadCost cost(12, 4, 1);
    SsdSim sim(smallConfig(false), SsdTiming{}, cost, 1);
    const auto rep = sim.run(readTrace(400));

    const auto sum = [&](const char *name) {
        const auto *h = rep.metrics.findHistogram(name);
        return h ? h->sum() : 0.0;
    };
    const double stages = sum("ssd.read.queue_us")
        + sum("ssd.read.sense_us") + sum("ssd.read.decode_us")
        + sum("ssd.read.xfer_us");
    // baseUs has no histogram of its own; reconstruct it from the
    // attempt/assist counters (every attempt and assist pays one
    // readBaseUs).
    const SsdTiming t;
    const double base = static_cast<double>(
                            rep.metrics.counter("ssd.read.attempts")
                            + rep.metrics.counter("ssd.read.assist_reads"))
        * t.readBaseUs;
    EXPECT_NEAR(sum("ssd.read.latency_us"), stages + base, 1e-6);
}

TEST(HostFrontend, SpanInvariantsHoldSequentialAndPipelined)
{
    for (const bool pipelined : {false, true}) {
        FixedReadCost cost(12, 4, 1);
        SsdSim sim(smallConfig(pipelined), SsdTiming{}, cost, 1);
        util::SpanTrace spans;
        sim.setSpanTrace(&spans);
        FrontendConfig fcfg;
        fcfg.queues = 2;
        fcfg.queueDepth = 8;
        HostFrontend(fcfg, sim).run(readTrace(150));

        std::stringstream ss;
        spans.writeJsonLines(ss);
        const auto forest = trace::parseSpanTrace(ss);
        const auto analysis = trace::analyzeSpans(forest);
        EXPECT_EQ(analysis.violationCount, 0u)
            << (analysis.violations.empty() ? ""
                                            : analysis.violations[0]);
        EXPECT_EQ(analysis.orphanCount, 0u);
        EXPECT_GT(analysis.spanCount, 0u);

        // Every read_op carries its attempt chain.
        int attempts = 0, ops = 0;
        for (const auto &n : forest.nodes) {
            attempts += n.cls == "attempt";
            ops += n.cls == "read_op";
        }
        EXPECT_EQ(attempts, 4 * ops); // FixedReadCost: 4 attempts
    }
}

TEST(HostFrontend, MultiPageRequestsAreNotRetryStorms)
{
    // 8-page requests with one attempt each: the per-root attempt
    // count is 8, but no session retried — must not be flagged.
    FixedReadCost cost(4);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    util::SpanTrace spans;
    sim.setSpanTrace(&spans);
    std::vector<trace::TraceRecord> tr;
    for (int i = 0; i < 20; ++i) {
        trace::TraceRecord r;
        r.timestampUs = i * 5000.0;
        r.offsetBytes = static_cast<std::uint64_t>(i) * 32768;
        r.sizeBytes = 32768; // 8 pages of 4 KiB
        r.isRead = true;
        tr.push_back(r);
    }
    sim.run(tr);

    std::stringstream ss;
    spans.writeJsonLines(ss);
    const auto forest = trace::parseSpanTrace(ss);
    trace::SpanAnalysisOptions opt;
    opt.retryStormK = 5;
    const auto analysis = trace::analyzeSpans(forest, opt);
    EXPECT_TRUE(analysis.retryStorms.empty());
}

TEST(HostFrontend, RejectsBadConfig)
{
    FrontendConfig bad;
    bad.queues = 0;
    FixedReadCost cost(4);
    SsdSim sim(smallConfig(), SsdTiming{}, cost, 1);
    EXPECT_THROW(HostFrontend(bad, sim), util::FatalError);

    FrontendConfig bad_rate;
    bad_rate.mode = ArrivalMode::OpenPoisson;
    bad_rate.ratePerQueueUs = 0.0;
    EXPECT_THROW(HostFrontend(bad_rate, sim), util::FatalError);
}

} // namespace
} // namespace flash::ssd
