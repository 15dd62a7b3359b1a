/**
 * @file
 * Queue-depth sweep: the multi-queue host frontend drives one MSR
 * workload through the SSD simulator at aggregate QD 1..256, A/B
 * comparing sequential read-retry against CACHE-READ-style pipelined
 * retry (attempt N+1's sense overlapped with attempt N's transfer +
 * decode). Per-read costs come from the chip-level experiment like
 * Fig 14; under queueing, shaving retry serialization shows up as a
 * tail-latency (p99/p999) win that grows with queue depth.
 *
 * Output is byte-identical at any --threads N (threads only speed up
 * the chip measurement, which is bit-deterministic) and across
 * reruns.
 */

#include <memory>
#include <optional>
#include <vector>

#include "bench_support.hh"
#include "core/read_policy.hh"
#include "core/voltage_predictor.hh"
#include "ssd/health_monitor.hh"
#include "ssd/host_frontend.hh"
#include "ssd/ssd_sim.hh"
#include "trace/msr_workloads.hh"

using namespace flash;

namespace
{

/** One arm of the A/B at one queue depth. */
struct ArmResult
{
    ssd::FrontendReport frontend;
};

ArmResult
runArm(const ssd::SsdConfig &cfg, const ssd::SsdTiming &timing,
       ssd::ReadCostSource &cost, const ssd::FrontendConfig &fcfg,
       const std::vector<trace::TraceRecord> &tr,
       util::SpanTrace *spans, ssd::HealthMonitor *health)
{
    ssd::SsdSim sim(cfg, timing, cost, 1);
    sim.setSpanTrace(spans);
    sim.setHealthMonitor(health);
    ssd::HostFrontend frontend(fcfg, sim);
    return ArmResult{frontend.run(tr)};
}

void
armJson(std::ostream &os, const ArmResult &r)
{
    os << "{\"iops\": " << util::jsonNumber(r.frontend.iops)
       << ", \"requests\": " << r.frontend.requests
       << ", \"makespan_us\": " << util::jsonNumber(r.frontend.makespanUs)
       << ", \"read_p50_us\": " << util::jsonNumber(r.frontend.readP50Us)
       << ", \"read_p99_us\": " << util::jsonNumber(r.frontend.readP99Us)
       << ", \"read_p999_us\": " << util::jsonNumber(r.frontend.readP999Us)
       << ", \"report\": ";
    r.frontend.device.writeJson(os);
    os << "}";
}

} // namespace

int
main(int argc, char **argv)
{
    util::Args args(argc, argv);
    const int threads = bench::threadsArg(args);
    const int requests = bench::requestsArg(args, 4000);
    const int queues = args.number<int>("queues", 4, 1, 256);
    const int qd_max = args.number<int>("qd-max", 256, 1, 4096);
    const double rate = args.number<double>("rate", 0.02, 1e-9, 1e6);
    const bool use_model = args.flag("voltage-model");
    const double model_confidence = bench::modelConfidenceArg(args);
    std::vector<std::string> workloads;
    for (const trace::WorkloadSpec &w : trace::msrWorkloads())
        workloads.push_back(w.name);
    const std::string workload =
        args.choice("workload", workloads, "usr_0");
    const std::string mode_name =
        args.choice("mode", {"closed", "fixed", "poisson"}, "closed");
    bench::OutDir out(args, /*spans=*/true);
    const ssd::ArrivalMode mode = mode_name == "fixed"
        ? ssd::ArrivalMode::OpenFixed
        : mode_name == "poisson" ? ssd::ArrivalMode::OpenPoisson
                                 : ssd::ArrivalMode::Closed;

    bench::header("QD sweep",
                  "multi-queue frontend, sequential vs pipelined "
                  "read-retry, QD 1 -> " + std::to_string(qd_max),
                  "n/a (engineering benchmark, cf. Park et al. "
                  "CACHE-READ retry)");

    // Per-read cost from the chip experiment: the retry-heavy
    // current-flash policy, where pipelining has retries to hide.
    auto chip = bench::makeTlcChip();
    const auto tables = bench::characterize(chip, 8, threads);
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    chip.programBlock(bench::kEvalBlock, bench::kChipSeed ^ 0x9d, overlay);
    bench::ageBlock(chip, bench::kEvalBlock, 5000);

    const ecc::EccModel ecc_model(ecc::EccConfig{16384, 145});
    core::VendorRetryPolicy vendor(chip.model());
    const int msb = chip.grayCode().msbPage();
    auto vcost = ssd::measureReadCost(chip, bench::kEvalBlock, vendor,
                                      ecc_model, overlay, msb, 2, threads);
    std::cout << "per-read cost (from the chip experiment): "
              << util::fmt(vcost.meanRetries(), 2) << " retries / "
              << util::fmt(vcost.meanSenseOps(), 1) << " senses per read\n"
              << "workload " << workload << ", " << requests
              << " requests per point, " << queues << " queues, mode "
              << mode_name << "\n\n";

    // --voltage-model: sweep the sentinel policy with a trained
    // predictor attached instead — the queueing view of the
    // confidence-gated assist-free read. Training and measurement
    // passes are serial because model state depends on read order.
    core::VoltageModelConfig mcfg;
    mcfg.confidenceThreshold = model_confidence;
    core::VoltagePredictor model(mcfg);
    std::optional<ssd::EmpiricalReadCost> mcost;
    if (use_model) {
        core::SentinelPolicy learned(tables,
                                     chip.model().defaultVoltages());
        learned.attachModel(&model);
        ssd::measureReadCost(chip, bench::kEvalBlock, learned, ecc_model,
                             overlay, msb, 2, 1, 4);
        mcost = ssd::measureReadCost(chip, bench::kEvalBlock, learned,
                                     ecc_model, overlay, msb, 2, 1, 5);
        model.exportMetrics(mcost->extraMetrics());
        std::cout << "voltage model: sweeping " << mcost->name()
                  << " cost instead ("
                  << util::fmt(mcost->meanRetries(), 2) << " retries / "
                  << util::fmt(mcost->meanSenseOps(), 1)
                  << " senses per read)\n\n";
    }
    ssd::ReadCostSource &sweep_cost =
        mcost ? static_cast<ssd::ReadCostSource &>(*mcost) : vcost;

    const auto spec = trace::msrWorkload(workload);
    const auto tr = trace::generateTrace(
        spec, static_cast<std::size_t>(requests), 42);

    ssd::SsdConfig cfg; // default 8-channel SSD
    ssd::SsdTiming timing;
    timing.readBaseUs = 5.0;
    timing.decodeUs = 2.0;

    std::unique_ptr<ssd::HealthMonitor> health;
    if (std::ostream *health_file = out.open("health.jsonl"))
        health = std::make_unique<ssd::HealthMonitor>(*health_file);
    std::ostream *metrics_file = out.open("metrics.json");
    if (metrics_file) {
        *metrics_file << "{\"workload\": \"" << util::jsonEscape(workload)
                      << "\", \"queues\": " << queues << ", \"sweep\": {";
    }

    util::TextTable table;
    table.header({"qd", "seq iops", "seq p50", "seq p99", "seq p999",
                  "pipe iops", "pipe p50", "pipe p99", "pipe p999",
                  "p99 delta"});

    double hi_qd_off_p99 = 0.0, hi_qd_on_p99 = 0.0;
    int hi_qd_points = 0, points = 0;
    for (int qd = 1; qd <= qd_max; qd *= 2) {
        // The sweep value is the aggregate outstanding cap: spread
        // over the queues (shallow points use fewer queues so every
        // queue keeps at least depth 1).
        ssd::FrontendConfig fcfg;
        fcfg.queues = std::min(queues, qd);
        fcfg.queueDepth = std::max(1, qd / fcfg.queues);
        fcfg.mode = mode;
        fcfg.ratePerQueueUs = rate;
        fcfg.seed = 7;

        ssd::SsdConfig seq_cfg = cfg;
        seq_cfg.pipelinedRetry = false;
        ssd::SsdConfig pipe_cfg = cfg;
        pipe_cfg.pipelinedRetry = true;

        if (health)
            health->beginRun("qd" + std::to_string(qd) + ".sequential");
        const ArmResult seq = runArm(seq_cfg, timing, sweep_cost, fcfg, tr,
                                     out.spans(), health.get());
        if (health)
            health->beginRun("qd" + std::to_string(qd) + ".pipelined");
        const ArmResult pipe = runArm(pipe_cfg, timing, sweep_cost, fcfg,
                                      tr, out.spans(), health.get());

        const double delta = seq.frontend.readP99Us > 0.0
            ? 1.0 - pipe.frontend.readP99Us / seq.frontend.readP99Us
            : 0.0;
        if (qd >= 8) {
            hi_qd_off_p99 += seq.frontend.readP99Us;
            hi_qd_on_p99 += pipe.frontend.readP99Us;
            ++hi_qd_points;
        }
        table.row({std::to_string(qd),
                   util::fmtInt(static_cast<std::int64_t>(
                       seq.frontend.iops)),
                   util::fmt(seq.frontend.readP50Us, 0),
                   util::fmt(seq.frontend.readP99Us, 0),
                   util::fmt(seq.frontend.readP999Us, 0),
                   util::fmtInt(static_cast<std::int64_t>(
                       pipe.frontend.iops)),
                   util::fmt(pipe.frontend.readP50Us, 0),
                   util::fmt(pipe.frontend.readP99Us, 0),
                   util::fmt(pipe.frontend.readP999Us, 0),
                   util::fmtPct(delta)});

        if (metrics_file) {
            *metrics_file << (points ? ", " : "") << '"' << qd
                          << "\": {\"sequential\": ";
            armJson(*metrics_file, seq);
            *metrics_file << ", \"pipelined\": ";
            armJson(*metrics_file, pipe);
            *metrics_file << "}";
        }
        ++points;
    }

    if (metrics_file)
        *metrics_file << "}}\n";

    table.print(std::cout);
    std::cout << "\nmean p99 read latency at QD >= 8: "
              << util::fmt(hi_qd_off_p99 / hi_qd_points, 0)
              << " us sequential -> "
              << util::fmt(hi_qd_on_p99 / hi_qd_points, 0)
              << " us pipelined ("
              << util::fmtPct(1.0 - hi_qd_on_p99 / hi_qd_off_p99)
              << " lower)\n";

    bench::footer("pipelined retry hides sense time behind transfer + "
                  "decode, so its tail win grows with queue depth; the "
                  "table is byte-identical at any --threads N");
    return 0;
}
