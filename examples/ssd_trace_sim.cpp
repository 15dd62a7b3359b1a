/**
 * @file
 * ssd_trace_sim: trace-driven SSD simulation with a selectable read
 * policy, the system-level view of the sentinel technique.
 *
 * Usage: ssd_trace_sim [--workload NAME] [--requests N]
 *   --workload: one of the MSR-like names (default usr_0)
 *   --requests: trace length (default 40000)
 * A mistyped flag or number exits 2 before any work.
 *
 * Replays the trace against an 8-channel SSD whose per-read retry
 * costs come from chip-level measurements of the vendor table, the
 * sentinel scheme and the oracle.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/characterization.hh"
#include "core/read_policy.hh"
#include "ssd/ssd_sim.hh"
#include "trace/msr_workloads.hh"
#include "util/args.hh"

using namespace flash;

int
main(int argc, char **argv)
{
    util::Args args(argc, argv);
    std::vector<std::string> workloads;
    for (const trace::WorkloadSpec &w : trace::msrWorkloads())
        workloads.push_back(w.name);
    const std::string workload =
        args.choice("workload", workloads, "usr_0");
    const auto requests = static_cast<std::size_t>(
        args.number<unsigned long>("requests", 40000, 1, 10000000));
    args.check();

    // Chip-level setup: TLC at the paper's evaluation point.
    auto geometry = nand::paperTlcGeometry();
    geometry.blocks = 2;
    nand::Chip chip(geometry, nand::tlcVoltageParams(), 3);
    core::CharOptions char_options;
    char_options.wordlineStride = 16;
    const auto tables =
        core::FactoryCharacterizer(char_options).run(chip);
    const auto overlay =
        core::makeOverlay(geometry, char_options.sentinel);
    chip.programBlock(1, 11, overlay);
    chip.setPeCycles(1, 5000);
    chip.age(1, 8760.0, 25.0);

    const ecc::EccModel ecc_model(ecc::EccConfig{16384, 145});
    core::VendorRetryPolicy vendor(chip.model());
    core::SentinelPolicy sentinel(tables, chip.model().defaultVoltages());
    core::OraclePolicy oracle_policy(chip.model().defaultVoltages());

    const int msb = chip.grayCode().msbPage();
    auto vendor_cost =
        ssd::measureReadCost(chip, 1, vendor, ecc_model, overlay, msb, 2);
    auto sentinel_cost =
        ssd::measureReadCost(chip, 1, sentinel, ecc_model, overlay, msb, 2);
    auto oracle_cost = ssd::measureReadCost(chip, 1, oracle_policy,
                                            ecc_model, overlay, msb, 2);

    // SSD-level replay.
    const auto spec = trace::msrWorkload(workload);
    const auto tr = trace::generateTrace(spec, requests, 42);
    const auto stats = trace::analyzeTrace(tr);
    std::printf("trace %s: %zu requests, %.0f%% reads, mean %.1f KiB\n",
                workload.c_str(), stats.requests, 100.0 * stats.readRatio,
                stats.meanSizeKb);

    ssd::SsdConfig config;
    ssd::SsdTiming timing;

    std::printf("\n%-14s %12s %12s %12s %8s\n", "policy", "mean read us",
                "p99 read us", "mean write us", "WAF");
    for (ssd::EmpiricalReadCost *cost :
         {&vendor_cost, &sentinel_cost, &oracle_cost}) {
        ssd::SsdSim sim(config, timing, *cost, 1);
        const auto report = sim.run(tr);
        // Each request's latency is recorded once, in the registry.
        const auto latency = [&report](const char *name) {
            const util::LatencyHistogram *h =
                report.metrics.findHistogram(name);
            return h ? *h : util::LatencyHistogram();
        };
        const auto reads = latency("ssd.read.request_latency_us");
        const auto writes = latency("ssd.write.request_latency_us");
        std::printf("%-14s %12.0f %12.0f %12.0f %8.2f\n",
                    report.policy.c_str(), reads.mean(),
                    reads.percentile(0.99), writes.mean(),
                    report.waf());
    }
    std::printf("\n(read costs per policy: current flash %.2f retries, "
                "sentinel %.2f, oracle %.2f)\n",
                vendor_cost.meanRetries(), sentinel_cost.meanRetries(),
                oracle_cost.meanRetries());
    return 0;
}
