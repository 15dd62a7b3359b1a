/**
 * @file
 * Fig 13: read-retry counts per wordline on the TLC chip at P/E 5000
 * + 1 year: the vendor retry table ("current flash") vs the sentinel
 * scheme.
 */

#include <cmath>
#include <optional>

#include "bench_support.hh"
#include "core/policy_metrics.hh"
#include "core/read_policy.hh"
#include "core/sentinel_probe.hh"
#include "core/voltage_cache.hh"
#include "ecc/ecc_model.hh"
#include "nandsim/read_seq.hh"
#include "ssd/health_monitor.hh"

using namespace flash;

int
main(int argc, char **argv)
{
    util::Args args(argc, argv);
    const int threads = bench::threadsArg(args);
    const double scrub_interval = bench::scrubIntervalArg(args);
    const int scrub_budget = bench::scrubBudgetArg(args, 16);
    bench::OutDir out(args, /*spans=*/true);
    bench::header("Figure 13",
                  "read retries per wordline, current flash vs sentinel "
                  "(TLC, P/E 5000 + 1 y, MSB page)",
                  "current flash needs >5 retries on many wordlines "
                  "(avg 6.6); sentinel averages 1.2");

    auto chip = bench::makeTlcChip();
    const auto tables = bench::characterize(chip, 8, threads);
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    chip.programBlock(bench::kEvalBlock, bench::kChipSeed ^ 0x13, overlay);

    // Health probes walk the block through retention checkpoints; the
    // closing ageBlock() below re-ages it to the figure's exact state
    // (refresh() clears retention), so the results are unchanged.
    if (std::ostream *health_file = out.open("health.jsonl")) {
        ssd::HealthMonitorOptions hopt;
        hopt.wlStride = 8;
        ssd::HealthMonitor health(*health_file, hopt);
        health.beginRun("fig13-tlc-pe5000");
        for (const double hours : {0.0, 24.0, 720.0, bench::kOneYearHours}) {
            bench::ageBlock(chip, bench::kEvalBlock, 5000, hours);
            health.probeBlock(chip, bench::kEvalBlock, tables, overlay,
                              nullptr, hours * 3.6e9);
        }
    }
    bench::ageBlock(chip, bench::kEvalBlock, 5000);

    const ecc::EccModel ecc_model(ecc::EccConfig{16384, 145});
    const core::LatencyParams lat;

    core::VendorRetryPolicy vendor(chip.model());
    core::SentinelPolicy sentinel(tables, chip.model().defaultVoltages());

    const auto vs = core::evaluateBlock(chip, bench::kEvalBlock, vendor,
                                        ecc_model, overlay, lat, -1, 1,
                                        threads, 0, out.spans());
    const auto ss = core::evaluateBlock(chip, bench::kEvalBlock, sentinel,
                                        ecc_model, overlay, lat, -1, 1,
                                        threads, 0, out.spans());

    // --scrub-interval enables the chip-level analogue of the SSD
    // scrubber: spend the scan budget on sentinel-only probe reads
    // across the block, average the inferred offset, and pre-warm the
    // voltage cache the way the background scrubber re-warms blocks
    // between host reads. Cached sessions depend on read order, so the
    // warmed evaluation is serial (threads=1) like every
    // cache-attached run.
    core::VoltageCache scrub_cache;
    std::optional<core::PolicyBlockStats> ws;
    int probe_count = 0;
    double probe_rber = 0.0;
    int probe_offset = 0;
    if (scrub_interval > 0.0) {
        const core::InferenceEngine engine(tables,
                                           chip.model().defaultVoltages());
        const nand::ReadClock probe_clock(0x73637275);
        const int wl_count = chip.geometry().wordlinesPerBlock();
        const int stride = std::max(1, wl_count / scrub_budget);
        double offset_sum = 0.0;
        for (int wl = 0; wl < wl_count && probe_count < scrub_budget;
             wl += stride) {
            const auto p = core::probeSentinel(
                chip, bench::kEvalBlock, wl, engine, overlay,
                probe_clock.at(bench::kEvalBlock, wl, 0));
            offset_sum += p.sentinelOffset;
            probe_rber += p.errorRate;
            ++probe_count;
        }
        probe_rber /= probe_count;
        probe_offset = static_cast<int>(
            std::lround(offset_sum / probe_count));
        scrub_cache.rewarm(bench::kEvalBlock,
                           core::epochOf(chip.blockAge(bench::kEvalBlock)),
                           probe_offset);
        core::SentinelPolicy warmed(tables,
                                    chip.model().defaultVoltages());
        warmed.attachCache(&scrub_cache);
        ws = core::evaluateBlock(chip, bench::kEvalBlock, warmed,
                                 ecc_model, overlay, lat, -1, 1, 1, 0,
                                 out.spans());
        scrub_cache.exportMetrics(ws->metrics);
    }

    if (std::ostream *metrics_file = out.open("metrics.json")) {
        std::vector<core::PolicyMetricsRun> runs{
            {vendor.name(), vs.metrics}, {sentinel.name(), ss.metrics}};
        if (ws)
            runs.push_back({"sentinel+scrub", ws->metrics});
        core::writePolicyMetricsJson(*metrics_file, runs);
    }

    util::TextTable table;
    table.header({"wordline", "current flash", "sentinel"});
    for (std::size_t i = 0; i < vs.retriesPerWordline.size(); i += 8) {
        table.row({util::fmtInt(static_cast<int>(i)),
                   util::fmtInt(vs.retriesPerWordline[i]),
                   util::fmtInt(ss.retriesPerWordline[i])});
    }
    table.print(std::cout);

    int v_over5 = 0;
    for (int r : vs.retriesPerWordline)
        v_over5 += r > 5;

    std::cout << "\ncurrent flash: mean retries "
              << util::fmt(vs.retries.mean(), 2) << " (max "
              << util::fmt(vs.retries.max(), 0) << "), " << v_over5 << "/"
              << vs.sessions << " wordlines need >5 retries, failures "
              << vs.failures << '\n';
    std::cout << "sentinel:      mean retries "
              << util::fmt(ss.retries.mean(), 2) << " (max "
              << util::fmt(ss.retries.max(), 0) << "), failures "
              << ss.failures << '\n';
    std::cout << "retry reduction: "
              << util::fmtPct(1.0
                              - ss.retries.mean()
                                  / std::max(1e-9, vs.retries.mean()))
              << " (paper: 82%, 6.6 -> 1.2)\n";
    std::cout << "chip-level read latency: "
              << util::fmt(vs.latencyUs.mean(), 0) << " us -> "
              << util::fmt(ss.latencyUs.mean(), 0) << " us ("
              << util::fmtPct(1.0
                              - ss.latencyUs.mean() / vs.latencyUs.mean())
              << " lower)\n";

    if (ws) {
        const auto cs = scrub_cache.stats();
        std::cout << "\nscrub probe: " << probe_count
                  << " sentinel-only reads, mean sentinel RBER "
                  << util::fmtPct(probe_rber) << ", rewarmed offset "
                  << probe_offset << " DAC\n";
        std::cout << "sentinel+scrub: mean retries "
                  << util::fmt(ws->retries.mean(), 2) << " (vs "
                  << util::fmt(ss.retries.mean(), 2)
                  << " cold), latency "
                  << util::fmt(ws->latencyUs.mean(), 0) << " us (vs "
                  << util::fmt(ss.latencyUs.mean(), 0)
                  << " us cold), cache hits " << cs.hits << "/"
                  << (cs.hits + cs.misses + cs.stales) << '\n';
    }

    bench::footer("sentinel removes most retries; current flash needs "
                  "many-step staircases on most wordlines");
    return 0;
}
