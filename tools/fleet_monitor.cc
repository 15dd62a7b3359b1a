/**
 * @file
 * Live fleet monitor over a health JSON-lines stream.
 *
 *   usage: fleet_monitor [HEALTH_FILE] [--follow] [--frame-interval X]
 *                        [--top N] [--ring N] [--retry-warn X]
 *                        [--retry-crit X] [--no-outliers] [--mad-k X]
 *                        [--alerts-out FILE] [--fleet FILE]
 *                        [--idle-timeout X]
 *                        [--fail-on-alert info|warn|warning|critical|crit]
 *                        [--quiet-frames]
 *
 * Two modes over the same engine (src/mon):
 *
 *  - One-shot (default): read the whole stream (file, or stdin when
 *    no file is given), render the dashboard frames the stream's
 *    simulated time produces, then the summary block.
 *  - Follow (--follow): tail the file as it grows, rendering frames
 *    as window boundaries stream in; ends when the stream has been
 *    idle for --idle-timeout seconds (0 = wait forever). Reading
 *    stdin already behaves like a tail (blocks until the writer
 *    closes), so --follow matters for regular files.
 *
 * Frames are keyed to *simulated* time boundaries, never wall
 * clock, and every aggregate uses exact summation — so frames and
 * alerts are byte-identical for any chunking of the stream and any
 * --threads value of the producing bench_fleet run.
 *
 * --fleet cross-checks the monitor's summed window deltas against
 * the fleet file's rollup counters (integer equality) and exits 1 on
 * mismatch. --fail-on-alert SEV exits 3 when an alert of severity
 * >= SEV fired (the CI gate). --alerts-out appends every fire/clear
 * event as JSON lines. --frame-interval (simulated us) must be > 0,
 * --top >= 1 and --ring >= 2; a malformed number, an unknown flag or
 * an error reading the inputs exits 2.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "mon/monitor.hh"
#include "ssd/fleet/report.hh"
#include "util/args.hh"
#include "util/logging.hh"

using namespace flash;

int
main(int argc, char **argv)
try {
    util::Args args(argc, argv);
    mon::MonitorConfig cfg;
    const bool follow = args.flag("follow");
    cfg.frameIntervalUs =
        args.number<double>("frame-interval", cfg.frameIntervalUs,
                            std::numeric_limits<double>::min());
    cfg.topK = args.number<int>("top", cfg.topK, 1);
    cfg.ringCapacity = args.number<std::size_t>("ring", cfg.ringCapacity, 2);
    const double retry_warn = args.number<double>("retry-warn", 2.0);
    const double retry_crit = args.number<double>("retry-crit", 4.0);
    cfg.madEnabled = !args.flag("no-outliers");
    cfg.madK = args.number<double>("mad-k", cfg.madK);
    const std::string alerts_out = args.text("alerts-out", "FILE");
    const std::string fleet_file = args.text("fleet", "FILE");
    const double idle_timeout_s = args.number<double>("idle-timeout", 5.0);
    const std::string fail_on = args.choice(
        "fail-on-alert", {"info", "warn", "warning", "critical", "crit"},
        "");
    const bool quiet_frames = args.flag("quiet-frames");
    const std::string health_file = args.positional("HEALTH_FILE", false);
    args.check();
    mon::Severity fail_severity = mon::Severity::Info;
    mon::parseSeverity(fail_on, fail_severity); // "" leaves Info

    // The stock thresholds are knobs so CI can force alerts to fire
    // (severity-ordering gate) without a degraded fleet.
    cfg.rules = mon::defaultRules();
    for (mon::AlertRule &r : cfg.rules) {
        if (r.name == "retry_rate_high")
            r.threshold = retry_warn;
        else if (r.name == "retry_rate_critical")
            r.threshold = retry_crit;
    }

    std::ofstream alerts_f;
    std::ostream *alerts = nullptr;
    if (!alerts_out.empty()) {
        alerts_f.open(alerts_out);
        util::fatalIf(!alerts_f, "cannot open " + alerts_out);
        alerts = &alerts_f;
    }

    // Without a buffer (--quiet-frames) the stream drops every write.
    std::ostream frames(quiet_frames ? nullptr : std::cout.rdbuf());

    mon::FleetMonitor monitor(cfg, frames, alerts);

    char buf[1 << 16];
    if (health_file.empty()) {
        // Stdin is already a tail: read blocks until the writer
        // closes, which is follow mode for pipelines.
        while (std::cin.read(buf, sizeof buf) || std::cin.gcount() > 0) {
            monitor.feed(std::string_view(
                buf, static_cast<std::size_t>(std::cin.gcount())));
        }
    } else {
        std::ifstream in(health_file, std::ios::binary);
        util::fatalIf(!in, "cannot open " + health_file);
        double idle_s = 0.0;
        for (;;) {
            in.read(buf, sizeof buf);
            const std::streamsize n = in.gcount();
            if (n > 0) {
                idle_s = 0.0;
                monitor.feed(std::string_view(
                    buf, static_cast<std::size_t>(n)));
            }
            if (in.eof()) {
                if (!follow)
                    break;
                if (idle_timeout_s > 0.0 && idle_s >= idle_timeout_s)
                    break;
                // The producer may still be writing: clear the eof
                // latch and poll. Wall clock only gates *termination*
                // of the tail loop; frames stay keyed to simulated
                // time, so output bytes are unaffected.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
                idle_s += 0.1;
                in.clear();
            } else {
                util::fatalIf(in.fail(), "read error on " + health_file);
            }
        }
    }
    monitor.finish();

    int rc = 0;
    if (!fleet_file.empty()) {
        std::ifstream fin(fleet_file);
        util::fatalIf(!fin, "cannot open " + fleet_file);
        const ssd::fleet::FleetReportData data =
            ssd::fleet::parseFleetLines(fin);
        if (!data.haveRollup) {
            std::cerr << "fleet_monitor: " << fleet_file
                      << " has no rollup record\n";
            return 1;
        }
        const std::string mismatch =
            monitor.reconcile(data.rollupCounters);
        if (!mismatch.empty()) {
            std::cerr << "fleet_monitor: reconciliation FAILED: "
                      << mismatch << '\n';
            return 1;
        }
        std::cout << "reconciliation: health window deltas match the "
                     "fleet rollup counters exactly\n";
    }

    if (!fail_on.empty() && monitor.alertsFired() > 0
        && monitor.worstSeverity() >= fail_severity) {
        std::cerr << "fleet_monitor: "
                  << mon::severityName(monitor.worstSeverity())
                  << " alert(s) fired (--fail-on-alert " << fail_on
                  << ")\n";
        rc = 3;
    }
    return rc;
} catch (const std::exception &e) {
    std::cerr << "fleet_monitor: " << e.what() << '\n';
    return 2;
}
