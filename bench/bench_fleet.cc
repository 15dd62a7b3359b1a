/**
 * @file
 * Fleet sweep: N independent simulated SSDs — profiles drawn from a
 * cohort distribution over P/E cycles, retention age, temperature and
 * workload mix — each driven by its own multi-queue host frontend,
 * evaluated in parallel and rolled up into fleet-level metrics.
 *
 * Per-read costs are measured per cohort on the chip model: the
 * evaluation block is re-aged to each cohort's midpoint (P/E,
 * retention, temperature) and the vendor retry ladder is run over its
 * wordlines, so a worn cohort's devices sample genuinely heavier
 * retry distributions than a light cohort's. All devices of a cohort
 * share the measured distribution (sampling is read-only; every
 * device brings its own deterministic Rng).
 *
 * Output (stdout; with --out DIR, the JSON lines DIR/fleet.jsonl and
 * DIR/health.jsonl) is byte-identical at any --threads N and
 * invariant to the device evaluation order (--shuffle): profiles
 * derive from (seed, device id) alone, metrics merge exactly (integer
 * bins, ExactSum totals), and health lines flush from per-device
 * buffers in device-id order. Feed fleet.jsonl to tools/fleet_report
 * for tail attribution, and health.jsonl to tools/fleet_monitor
 * (optionally piped or tailed with --follow while the run is live)
 * for streaming frames, alert rules and rollup reconciliation.
 */

#include <sstream>

#include "bench_support.hh"
#include "core/read_policy.hh"
#include "ssd/fleet/fleet.hh"
#include "ssd/fleet/report.hh"
#include "ssd/health_monitor.hh"
#include "util/rng.hh"

using namespace flash;

namespace
{

/** Cohort-indexed empirical costs measured on the re-aged chip. */
class MeasuredFleetEnv : public ssd::fleet::FleetEnv
{
  public:
    MeasuredFleetEnv(std::vector<ssd::EmpiricalReadCost> costs,
                     ssd::FixedReadCost warm)
        : costs_(std::move(costs)), warm_(warm)
    {
    }

    ssd::ReadCostSource &
    coldCost(const ssd::fleet::DeviceProfile &p) override
    {
        return costs_.at(static_cast<std::size_t>(p.cohort));
    }

    ssd::ReadCostSource *
    warmCost(const ssd::fleet::DeviceProfile &) override
    {
        return &warm_;
    }

  private:
    std::vector<ssd::EmpiricalReadCost> costs_;
    ssd::FixedReadCost warm_;
};

} // namespace

int
main(int argc, char **argv)
{
    util::Args args(argc, argv);
    const int threads = bench::threadsArg(args);
    const int devices = args.number<int>("devices", 64, 1, 4096);
    const int requests = bench::requestsArg(args, 200);
    const auto seed = static_cast<std::uint64_t>(
        args.number<long>("seed", 1, 0, 1000000000));
    const bool shuffle = args.flag("shuffle");
    const int top_k = args.number<int>("top", 8, 1, 4096);
    const double scrub_interval = bench::scrubIntervalArg(args);
    const int scrub_budget = bench::scrubBudgetArg(args, 16);
    const bool use_model = args.flag("voltage-model");
    const double model_confidence = bench::modelConfidenceArg(args);
    // --ftl / --gc-policy apply fleet-wide: every cohort's devices
    // switch mapping stacks together (per-cohort splits are a library
    // feature; the bench keeps one knob).
    const ssd::FtlKind ftl_kind = bench::ftlArg(args);
    const ssd::GcVictimPolicy gc_policy = bench::gcPolicyArg(args);
    bench::OutDir out(args);

    bench::header("Fleet sweep",
                  std::to_string(devices)
                      + " devices over aged cohorts, per-device "
                        "frontends, exact fleet rollup",
                  "n/a (engineering benchmark: fleet-scale tail "
                  "attribution)");

    ssd::fleet::FleetConfig cfg;
    cfg.devices = devices;
    cfg.seed = seed;
    cfg.requests = requests;
    cfg.timing.readBaseUs = 5.0;
    cfg.timing.decodeUs = 2.0;
    cfg.healthIntervalUs =
        out.enabled() ? ssd::HealthMonitorOptions{}.intervalUs : 0.0;
    if (scrub_interval > 0.0) {
        cfg.scrub.intervalUs = scrub_interval;
        cfg.scrub.probeBudget = scrub_budget;
    }
    if (use_model) {
        cfg.model = true;
        cfg.modelConfig.confidenceThreshold = model_confidence;
    }
    cfg.cohorts = ssd::fleet::defaultCohorts();
    for (ssd::fleet::CohortSpec &c : cfg.cohorts) {
        c.ftl = ftl_kind;
        c.gcPolicy = gc_policy;
    }
    if (shuffle) {
        // A deterministic permutation of the evaluation order; the
        // fleet result is provably invariant to it.
        cfg.order.resize(static_cast<std::size_t>(devices));
        for (int d = 0; d < devices; ++d)
            cfg.order[static_cast<std::size_t>(d)] = d;
        util::Rng rng(util::hashCombine(seed, 0x0d8));
        for (std::size_t i = cfg.order.size(); i > 1; --i)
            std::swap(cfg.order[i - 1], cfg.order[rng.uniformInt(i)]);
    }

    // Cohort read costs from the chip experiment: re-age the
    // evaluation block to each cohort's midpoint and measure the
    // vendor retry ladder over its wordlines.
    auto chip = bench::makeTlcChip();
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    chip.programBlock(bench::kEvalBlock, bench::kChipSeed ^ 0x9d, overlay);
    const ecc::EccModel ecc_model(ecc::EccConfig{16384, 145});
    core::VendorRetryPolicy vendor(chip.model());
    const int msb = chip.grayCode().msbPage();

    std::vector<ssd::EmpiricalReadCost> costs;
    util::TextTable cost_table;
    cost_table.header({"cohort", "pe", "retention h", "temp C",
                       "retries/read", "senses/read"});
    for (const ssd::fleet::CohortSpec &c : cfg.cohorts) {
        const std::uint32_t pe = (c.peMin + c.peMax) / 2;
        const double hours =
            0.5 * (c.retentionHoursMin + c.retentionHoursMax);
        bench::ageBlock(chip, bench::kEvalBlock, pe, hours, c.tempC);
        costs.push_back(ssd::measureReadCost(chip, bench::kEvalBlock,
                                             vendor, ecc_model, overlay,
                                             msb, 4, threads));
        cost_table.row({c.name, std::to_string(pe),
                        util::fmt(hours, 0), util::fmt(c.tempC, 0),
                        util::fmt(costs.back().meanRetries(), 2),
                        util::fmt(costs.back().meanSenseOps(), 1)});
    }
    std::cout << "per-cohort read costs (vendor ladder on the re-aged "
                 "chip block):\n";
    cost_table.print(std::cout);
    std::cout << '\n';

    MeasuredFleetEnv env(std::move(costs), ssd::FixedReadCost(1));
    const ssd::fleet::FleetResult fleet =
        ssd::fleet::runFleet(cfg, env, threads);

    // Round-trip the result through its own serialization: the table
    // below comes from exactly the bytes fleet_report would read.
    std::stringstream lines;
    ssd::fleet::writeFleetJsonLines(fleet, lines);
    const ssd::fleet::FleetReportData data =
        ssd::fleet::parseFleetLines(lines);
    const ssd::fleet::TailAttribution tail =
        ssd::fleet::attributeTail(data);
    const std::string mismatch =
        ssd::fleet::checkReconciliation(data, tail);
    util::fatalIf(!mismatch.empty(),
                  "fleet reconciliation failed: " + mismatch);

    ssd::fleet::printReport(std::cout, data, tail, top_k);

    if (out.enabled()) {
        *out.open("fleet.jsonl") << lines.str();
        ssd::fleet::writeHealthLines(fleet, *out.open("health.jsonl"));
    }

    bench::footer("rollups merge exactly (integer bins + ExactSum), so "
                  "stdout and every artifact are byte-identical at any "
                  "--threads N and under --shuffle");
    return 0;
}
