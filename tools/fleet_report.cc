/**
 * @file
 * Fleet tail-attribution report over a `bench_fleet --out DIR`
 * fleet.jsonl.
 *
 *   usage: fleet_report FLEET_FILE [--health FILE] [--top N] [--json FILE]
 *
 * Reads the per-device JSON lines back (malformed or truncated lines
 * are skipped and counted, never fatal), merges the lossless latency
 * bins into the fleet distribution, and attributes the p99/p999 tail
 * mass to devices (top-K offender table) and cohorts. Exits 1 when
 * the exactness gate fails: per-device tail counts must partition the
 * fleet tail mass with integer equality, and the re-merged bins must
 * reproduce the file's rollup record. --health reads a fleet health
 * file through the monitor's follower (mon::HealthFollower) and checks
 * it for completeness (records, malformed and ignored lines,
 * per-device ordering). --json exports the attribution plus the
 * input-hygiene counts (malformed / ignored / duplicate lines,
 * health-scan counts); the
 * export happens before the gates so failing runs still leave their
 * counts on disk. Usage and I/O errors exit 2.
 */

#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "ssd/fleet/report.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace flash;

int
main(int argc, char **argv)
try {
    util::Args args(argc, argv);
    const std::string health_file = args.text("health", "FILE");
    const int top_k = args.number<int>("top", 10, 1);
    const std::string json_out = args.text("json", "FILE");
    const std::string fleet_file = args.positional("FLEET_FILE");
    args.check();

    std::ifstream in(fleet_file);
    util::fatalIf(!in, "cannot open " + fleet_file);
    const ssd::fleet::FleetReportData data =
        ssd::fleet::parseFleetLines(in);
    if (data.devices.empty()) {
        std::cerr << "fleet_report: no device records in " << fleet_file
                  << " (" << data.malformedLines << " malformed line(s))\n";
        return 1;
    }
    const ssd::fleet::TailAttribution tail =
        ssd::fleet::attributeTail(data);

    ssd::fleet::printReport(std::cout, data, tail, top_k);

    std::optional<ssd::fleet::HealthScan> health_scan;
    if (!health_file.empty()) {
        std::ifstream hin(health_file);
        util::fatalIf(!hin, "cannot open " + health_file);
        health_scan = ssd::fleet::scanHealth(hin);
        const ssd::fleet::HealthScan &scan = *health_scan;
        std::cout << "\nhealth: " << scan.stats.records << " records from "
                  << scan.devices << " device(s), " << scan.stats.malformed
                  << " malformed line(s), " << scan.stats.ignored
                  << " ignored line(s), per-device runs "
                  << (scan.ordered ? "contiguous" : "INTERLEAVED")
                  << '\n';
        if (!scan.modelConfidence.empty()) {
            // Attribute tail mass to model uncertainty: per-device
            // confidence next to each top offender's p99 tail share.
            double sum = 0.0, min_conf = 2.0;
            int min_dev = -1;
            for (const auto &[dev, conf] : scan.modelConfidence) {
                sum += conf;
                if (conf < min_conf) {
                    min_conf = conf;
                    min_dev = dev;
                }
            }
            const double mean =
                sum / static_cast<double>(scan.modelConfidence.size());
            std::cout << "model confidence: "
                      << scan.modelConfidence.size()
                      << " device(s) reporting, mean "
                      << flash::util::fmt(mean, 3) << ", min "
                      << flash::util::fmt(min_conf, 3) << " (device "
                      << min_dev << ")\n\n"
                      << "top offenders vs model confidence:\n";
            flash::util::TextTable t;
            t.header({"device", "share@p99", "confidence"});
            const std::size_t k = std::min<std::size_t>(
                tail.devices.size(), static_cast<std::size_t>(top_k));
            for (std::size_t i = 0; i < k; ++i) {
                const ssd::fleet::TailShare &s = tail.devices[i];
                const auto it = scan.modelConfidence.find(s.device);
                t.row({std::to_string(s.device),
                       flash::util::fmtPct(s.share99),
                       it != scan.modelConfidence.end()
                           ? flash::util::fmt(it->second, 3)
                           : std::string("n/a")});
            }
            t.print(std::cout);
        }
    }

    if (!json_out.empty()) {
        std::ofstream jf(json_out);
        util::fatalIf(!jf, "cannot open " + json_out);
        ssd::fleet::writeReportJson(
            jf, data, tail, health_scan ? &*health_scan : nullptr);
        jf << '\n';
    }

    // The gates run after the JSON export so a failing run still
    // leaves its counts on disk for the CI artifacts.
    if (health_scan && !health_scan->ordered) {
        std::cerr << "fleet_report: health records interleave "
                     "across devices\n";
        return 1;
    }

    const std::string mismatch =
        ssd::fleet::checkReconciliation(data, tail);
    if (!mismatch.empty()) {
        std::cerr << "fleet_report: reconciliation FAILED: " << mismatch
                  << '\n';
        return 1;
    }
    std::cout << "\nreconciliation: per-device tail counts partition the "
                 "fleet tail mass exactly"
              << (data.haveRollup
                      ? "; merged bins reproduce the rollup record"
                      : "")
              << '\n';
    return 0;
} catch (const std::exception &e) {
    std::cerr << "fleet_report: " << e.what() << '\n';
    return 2;
}
