/**
 * @file
 * Fig 14: read latency reduction of the sentinel scheme vs current
 * flash on eight MSR-Cambridge-like traces, replayed through the
 * SSDSim-style simulator. Per-read costs come from the Fig 13
 * chip-level experiment (MSB page, TLC P/E 5000 + 1 y), exactly how
 * the paper plugs chip measurements into SSDSim.
 */

#include <memory>
#include <optional>

#include "bench_support.hh"
#include "core/read_policy.hh"
#include "core/voltage_cache.hh"
#include "core/voltage_predictor.hh"
#include "ssd/health_monitor.hh"
#include "ssd/scrubber/scrubber.hh"
#include "ssd/ssd_sim.hh"
#include "trace/msr_workloads.hh"

using namespace flash;

int
main(int argc, char **argv)
{
    util::Args args(argc, argv);
    const int threads = bench::threadsArg(args);
    const bool use_cache = args.flag("voltage-cache");
    const bool use_model = args.flag("voltage-model");
    const double model_confidence = bench::modelConfidenceArg(args);
    const double scrub_interval = bench::scrubIntervalArg(args);
    const int scrub_budget = bench::scrubBudgetArg(args, 64);
    const double refresh_rber = bench::refreshRberArg(args);
    const int requests = bench::requestsArg(args, 60000);
    ssd::SsdConfig cfg; // default 8-channel SSD
    cfg.ftl = bench::ftlArg(args);
    cfg.gcPolicy = bench::gcPolicyArg(args);
    bench::OutDir out(args, /*spans=*/true);
    const bool use_scrub = scrub_interval > 0.0;
    bench::header("Figure 14",
                  "SSD-level read latency reduction on 8 MSR-like traces",
                  "74% average read-latency reduction");

    auto chip = bench::makeTlcChip();
    const auto tables = bench::characterize(chip, 8, threads);
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    chip.programBlock(bench::kEvalBlock, bench::kChipSeed ^ 0x14, overlay);
    bench::ageBlock(chip, bench::kEvalBlock, 5000);

    const ecc::EccModel ecc_model(ecc::EccConfig{16384, 145});
    core::VendorRetryPolicy vendor(chip.model());
    core::SentinelPolicy sentinel(tables, chip.model().defaultVoltages());

    const int msb = chip.grayCode().msbPage();
    auto vcost = ssd::measureReadCost(chip, bench::kEvalBlock, vendor,
                                      ecc_model, overlay, msb, 2, threads);
    auto scost = ssd::measureReadCost(chip, bench::kEvalBlock, sentinel,
                                      ecc_model, overlay, msb, 2, threads);
    std::cout << "per-read cost (from the chip experiment): current flash "
              << util::fmt(vcost.meanRetries(), 2) << " retries / "
              << util::fmt(vcost.meanSenseOps(), 1)
              << " senses; sentinel " << util::fmt(scost.meanRetries(), 2)
              << " retries / " << util::fmt(scost.meanSenseOps(), 1)
              << " senses\n\n";

    // --voltage-cache: a third cost source measured with a per-block
    // inferred-voltage cache attached. Cached sessions depend on the
    // reads that ran before them, so the measurement is serial.
    std::optional<ssd::EmpiricalReadCost> ccost;
    if (use_cache) {
        core::VoltageCache cache;
        core::SentinelPolicy cached(tables, chip.model().defaultVoltages());
        cached.attachCache(&cache);
        ccost = ssd::measureReadCost(chip, bench::kEvalBlock, cached,
                                     ecc_model, overlay, msb, 2, 1);
        cache.exportMetrics(ccost->extraMetrics());
        const auto cs = cache.stats();
        std::cout << "voltage cache: hits " << cs.hits << ", misses "
                  << cs.misses << ", stale " << cs.stales
                  << "; assist reads/read "
                  << util::fmt(scost.meanAssistReads(), 2) << " -> "
                  << util::fmt(ccost->meanAssistReads(), 2)
                  << ", retries " << util::fmt(scost.meanRetries(), 2)
                  << " -> " << util::fmt(ccost->meanRetries(), 2)
                  << ", senses " << util::fmt(scost.meanSenseOps(), 1)
                  << " -> " << util::fmt(ccost->meanSenseOps(), 1)
                  << "\n\n";
    }

    // --voltage-model: a cost source measured with the online
    // predictive voltage model attached. A training pass on its own
    // read stream feeds the regression from ordinary sentinel
    // inferences; the measurement pass on a second stream then
    // samples the trained model's confidence-gated assist-free
    // distribution. Both passes are serial because model state
    // depends on read order.
    core::VoltageModelConfig mcfg;
    mcfg.confidenceThreshold = model_confidence;
    core::VoltagePredictor model(mcfg);
    std::optional<ssd::EmpiricalReadCost> mcost;
    if (use_model) {
        core::SentinelPolicy learned(tables, chip.model().defaultVoltages());
        learned.attachModel(&model);
        ssd::measureReadCost(chip, bench::kEvalBlock, learned, ecc_model,
                             overlay, msb, 2, 1, 4);
        mcost = ssd::measureReadCost(chip, bench::kEvalBlock, learned,
                                     ecc_model, overlay, msb, 2, 1, 5);
        model.exportMetrics(mcost->extraMetrics());
        const auto ms = model.stats();
        std::cout << "voltage model: " << ms.observes
                  << " observations, fast path " << ms.fastHits << "/"
                  << ms.fastAttempts << " hits ("
                  << ms.lowConfidence << " below gate); assist reads/read "
                  << util::fmt(scost.meanAssistReads(), 2) << " -> "
                  << util::fmt(mcost->meanAssistReads(), 2)
                  << ", retries " << util::fmt(scost.meanRetries(), 2)
                  << " -> " << util::fmt(mcost->meanRetries(), 2)
                  << ", senses " << util::fmt(scost.meanSenseOps(), 1)
                  << " -> " << util::fmt(mcost->meanSenseOps(), 1)
                  << "\n\n";
    }

    // --scrub-interval: an A/B comparison against the same sentinel
    // SSD with the background scrubber running. The "warm" per-read
    // cost — what a foreground read pays when the scrubber has just
    // probed its block's offset — is measured like the
    // --voltage-cache source: a first pass fills a fresh voltage
    // cache (stores on success), a second pass on a different read
    // stream samples the warmed-up distribution. Both passes are
    // serial because cached sessions depend on read order.
    core::VoltageCache warm_cache;
    std::optional<ssd::EmpiricalReadCost> wcost;
    if (use_scrub) {
        core::SentinelPolicy warmed(tables, chip.model().defaultVoltages());
        warmed.attachCache(&warm_cache);
        ssd::measureReadCost(chip, bench::kEvalBlock, warmed, ecc_model,
                             overlay, msb, 2, 1, 2);
        wcost = ssd::measureReadCost(chip, bench::kEvalBlock, warmed,
                                     ecc_model, overlay, msb, 2, 1, 3);
        std::cout << "scrub warm cost (cache pre-warmed, as after a probe): "
                  << util::fmt(wcost->meanRetries(), 2) << " retries / "
                  << util::fmt(wcost->meanSenseOps(), 1) << " senses / "
                  << util::fmt(wcost->meanAssistReads(), 2)
                  << " assist reads per read\n\n";
    }

    ssd::SsdTiming timing;
    // Retries re-sense on-die: per-attempt fixed cost is small; the
    // full transfer+decode pipeline cost is paid once per page read.
    timing.readBaseUs = 5.0;
    timing.decodeUs = 2.0;

    util::TextTable table;
    std::vector<std::string> columns{"trace", "reads",
                                     "current flash (us)", "sentinel (us)"};
    if (use_cache)
        columns.push_back("sentinel+cache (us)");
    if (use_model)
        columns.push_back("sentinel+model (us)");
    if (use_scrub)
        columns.push_back("sentinel+scrub (us)");
    columns.push_back("reduction");
    table.header(columns);

    std::ostream *metrics_file = out.open("metrics.json");
    if (metrics_file)
        *metrics_file << "{\"workloads\": {";
    std::unique_ptr<ssd::HealthMonitor> health;
    if (std::ostream *health_file = out.open("health.jsonl")) {
        ssd::HealthMonitorOptions hopt;
        hopt.wlStride = 8;
        health = std::make_unique<ssd::HealthMonitor>(*health_file, hopt);
        health->beginRun("fig14-chip");
        health->probeBlock(chip, bench::kEvalBlock, tables, overlay,
                           use_model ? &model : nullptr, 0.0);
    }

    // One scrub device serves every workload (probes are keyed by
    // per-block counters of the per-run scrubber, so sharing the
    // device keeps runs independent).
    std::optional<ssd::ChipScrubDevice> scrub_device;
    if (use_scrub)
        scrub_device.emplace(chip, tables, overlay, bench::kEvalBlock);

    // Mean retries per page read of one replay (attempts minus the
    // mandatory first read).
    const auto mean_retries = [](const ssd::SimReport &r) {
        const double ops =
            static_cast<double>(r.metrics.counter("ssd.read.page_ops"));
        return ops == 0.0
            ? 0.0
            : static_cast<double>(r.metrics.counter("ssd.read.attempts"))
                / ops
                - 1.0;
    };

    // Per-read sense operations of one replay.
    const auto mean_senses = [](const ssd::SimReport &r) {
        const double ops =
            static_cast<double>(r.metrics.counter("ssd.read.page_ops"));
        return ops == 0.0
            ? 0.0
            : static_cast<double>(r.metrics.counter("ssd.read.sense_ops"))
                / ops;
    };

    // One replay of a trace on a fresh SSD with spans and health
    // attached; the health run is named "<trace>.<arm>". The scrub arm
    // adds a scrubber (its schedule state is part of the run) feeding
    // the warm cost source.
    const auto replay = [&](const std::string &trace_name,
                            const std::vector<trace::TraceRecord> &tr,
                            ssd::ReadCostSource &cost,
                            ssd::Scrubber *scrub = nullptr) {
        const std::string arm = scrub ? "sentinel+scrub" : cost.name();
        ssd::SsdSim sim(cfg, timing, cost, 1);
        sim.setSpanTrace(out.spans());
        sim.setHealthMonitor(health.get());
        if (scrub) {
            sim.setWarmReadCost(&*wcost);
            sim.attachScrubber(scrub);
        }
        if (health)
            health->beginRun(trace_name + "." + arm);
        ssd::SimReport r = sim.run(tr);
        r.policy = arm;
        return r;
    };

    double sum = 0.0;
    int n = 0;
    double ab_off_retry = 0.0, ab_on_retry = 0.0;
    double ab_off_p99 = 0.0, ab_on_p99 = 0.0;
    double mab_base_retry = 0.0, mab_model_retry = 0.0;
    double mab_base_sense = 0.0, mab_model_sense = 0.0;
    double mab_base_p99 = 0.0, mab_model_p99 = 0.0;
    util::MetricsRegistry scrub_total; // "scrub.*" counters of every run
    for (const auto &w : trace::msrWorkloads()) {
        auto spec = w;
        spec.meanInterarrivalUs *= 0.5; // one busy volume per SSD
        const auto tr = trace::generateTrace(spec, requests, 42);

        const ssd::SimReport rv = replay(w.name, tr, vcost);
        const ssd::SimReport rs = replay(w.name, tr, scost);
        std::optional<ssd::SimReport> rc;
        if (ccost)
            rc = replay(w.name, tr, *ccost);
        // The model arm, A/B'd against the cache arm when both run
        // (else against plain sentinel): same trace, cost source
        // measured with the trained predictor attached.
        std::optional<ssd::SimReport> rm;
        if (mcost) {
            rm = replay(w.name, tr, *mcost);
            const ssd::SimReport &base = rc ? *rc : rs;
            mab_base_retry += mean_retries(base);
            mab_model_retry += mean_retries(*rm);
            mab_base_sense += mean_senses(base);
            mab_model_sense += mean_senses(*rm);
            mab_base_p99 += base.readLatencyUs.percentile(0.99);
            mab_model_p99 += rm->readLatencyUs.percentile(0.99);
        }

        // The scrub-on arm: same trace, same cold cost source.
        std::optional<ssd::SimReport> ro;
        if (use_scrub) {
            ssd::ScrubberConfig scfg;
            scfg.intervalUs = scrub_interval;
            scfg.probeBudget = scrub_budget;
            scfg.warmUs = 10.0e6;
            if (refresh_rber > 0.0)
                scfg.refreshRber = refresh_rber;
            scfg.validate();
            ssd::Scrubber scrub(scfg, *scrub_device);
            ro = replay(w.name, tr, scost, &scrub);

            ab_off_retry += mean_retries(rs);
            ab_on_retry += mean_retries(*ro);
            ab_off_p99 += rs.readLatencyUs.percentile(0.99);
            ab_on_p99 += ro->readLatencyUs.percentile(0.99);
            scrub_total.merge(ro->metrics);
        }

        if (metrics_file) {
            std::ostream &mf = *metrics_file;
            mf << (n ? ", " : "") << '"' << util::jsonEscape(w.name)
               << "\": {\"" << util::jsonEscape(rv.policy) << "\": ";
            rv.writeJson(mf);
            const ssd::SimReport *arms[] = {&rs, rc ? &*rc : nullptr,
                                            rm ? &*rm : nullptr,
                                            ro ? &*ro : nullptr};
            for (const ssd::SimReport *r : arms) {
                if (r) {
                    mf << ", \"" << util::jsonEscape(r->policy) << "\": ";
                    r->writeJson(mf);
                }
            }
            mf << "}";
        }

        const double red =
            1.0 - rs.readLatencyUs.mean() / rv.readLatencyUs.mean();
        sum += red;
        ++n;
        std::vector<std::string> row{
            w.name,
            util::fmtInt(
                static_cast<std::int64_t>(rv.readLatencyUs.count())),
            util::fmt(rv.readLatencyUs.mean(), 0),
            util::fmt(rs.readLatencyUs.mean(), 0)};
        if (rc)
            row.push_back(util::fmt(rc->readLatencyUs.mean(), 0));
        if (rm)
            row.push_back(util::fmt(rm->readLatencyUs.mean(), 0));
        if (ro)
            row.push_back(util::fmt(ro->readLatencyUs.mean(), 0));
        row.push_back(util::fmtPct(red));
        table.row(row);
    }
    if (metrics_file)
        *metrics_file << "}}\n";

    table.print(std::cout);
    std::cout << "\nmean read-latency reduction: " << util::fmtPct(sum / n)
              << " (paper: 74%)\n";

    if (use_model) {
        std::cout
            << "\nmodel A/B over " << n << " traces (sentinel"
            << (use_cache ? "+cache" : "") << " -> sentinel+model):\n"
            << "  mean retries/read:     "
            << util::fmt(mab_base_retry / n, 3) << " -> "
            << util::fmt(mab_model_retry / n, 3) << '\n'
            << "  mean senses/read:      "
            << util::fmt(mab_base_sense / n, 3) << " -> "
            << util::fmt(mab_model_sense / n, 3) << '\n'
            << "  mean p99 read latency: "
            << util::fmt(mab_base_p99 / n, 0) << " us -> "
            << util::fmt(mab_model_p99 / n, 0) << " us\n";
    }

    if (use_scrub) {
        const std::uint64_t warm_reads =
            scrub_total.counter("scrub.read.warm");
        std::cout
            << "\nscrub A/B over " << n
            << " traces (sentinel, scrub off -> on):\n"
            << "  mean retries/read:     "
            << util::fmt(ab_off_retry / n, 3) << " -> "
            << util::fmt(ab_on_retry / n, 3) << '\n'
            << "  mean p99 read latency: "
            << util::fmt(ab_off_p99 / n, 0) << " us -> "
            << util::fmt(ab_on_p99 / n, 0) << " us\n"
            << "  warm reads " << warm_reads << "/"
            << (warm_reads + scrub_total.counter("scrub.read.cold"))
            << ", probes " << scrub_total.counter("scrub.probes") << " ("
            << scrub_total.counter("scrub.probe_skipped")
            << " skipped), refresh "
            << scrub_total.counter("scrub.refresh.queued")
            << " queued / " << scrub_total.counter("scrub.refresh.completed")
            << " done / " << scrub_total.counter("scrub.refresh.pages")
            << " pages / " << scrub_total.counter("scrub.refresh.erases")
            << " erases\n";
    }

    bench::footer("sentinel wins on every trace by a roughly uniform "
                  "factor; the absolute reduction is bounded by our "
                  "latency model's fixed costs (see EXPERIMENTS.md)");
    return 0;
}
