#include "ssd/fleet/report.hh"

#include <algorithm>
#include <climits>
#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace flash::ssd::fleet
{

namespace
{

/**
 * The "read_latency" bins into @p out (null: no requests, empty
 * histogram); false when absent or malformed.
 */
bool
binsField(const util::JsonValue &v, util::LatencyHistogram &out)
{
    const util::JsonValue *latency = v.find("read_latency");
    if (latency == nullptr)
        return false;
    if (latency->type == util::JsonValue::Type::Null)
        return true;
    try {
        out = util::LatencyHistogram::fromBinsJson(*latency);
    } catch (const util::FatalError &) {
        return false;
    }
    return true;
}

/** Parse one device line into @p out; false = malformed. */
bool
parseDeviceLine(const util::JsonValue &v, ReportDevice &out)
{
    std::uint64_t device = 0;
    if (!v.get("device", device, INT_MAX)
        || !v.get("cohort", out.cohort)
        || !v.get("requests", out.requests)) {
        return false;
    }
    out.device = static_cast<int>(device);
    v.get("workload", out.workload);
    v.get("iops", out.iops);
    v.get("read_p50_us", out.readP50Us);
    v.get("read_p99_us", out.readP99Us);
    v.get("read_p999_us", out.readP999Us);
    v.get("footprint_bytes", out.footprintBytes);
    // Optional mapping-stack fields (files from before the FTL zoo
    // simply lack them; tolerate their absence).
    v.get("ftl", out.ftl);
    v.get("gc_policy", out.gcPolicy);
    v.get("waf_num", out.wafNum);
    v.get("waf_den", out.wafDen);
    return binsField(v, out.latency);
}

/** Take one rollup line into @p data; false = malformed. */
bool
parseRollupLine(const util::JsonValue &v, FleetReportData &data)
{
    std::uint64_t devices = 0, requests = 0;
    util::LatencyHistogram latency;
    if (!v.get("devices", devices)
        || !v.get("requests", requests)
        || !binsField(v, latency))
        return false;
    data.haveRollup = true;
    data.rollupDevices = devices;
    data.rollupRequests = requests;
    data.rollupLatency = std::move(latency);
    // The merged registry's counters, for cross-artifact
    // reconciliation (health stream vs fleet rollup).
    if (const util::JsonValue *m = v.find("metrics")) {
        if (const util::JsonValue *c = m->find("counters")) {
            for (const auto &[name, val] : c->object) {
                std::uint64_t n = 0;
                if (util::jsonCount(&val, n))
                    data.rollupCounters[name] = n;
            }
        }
    }
    return true;
}

} // namespace

FleetReportData
parseFleetLines(std::istream &is)
{
    FleetReportData data;
    std::set<int> seen;
    util::JsonLinesReader reader([&](util::JsonValue &v) {
        std::string kind;
        if (!v.get("fleet", kind))
            return util::LineVerdict::Ignored; // another JSON-lines record
        if (kind == "rollup") {
            return parseRollupLine(v, data) ? util::LineVerdict::Record
                                            : util::LineVerdict::Malformed;
        }
        if (kind != "device")
            return util::LineVerdict::Ignored;
        ReportDevice d;
        if (!parseDeviceLine(v, d))
            return util::LineVerdict::Malformed;
        if (seen.insert(d.device).second)
            data.devices.push_back(std::move(d));
        else
            ++data.duplicateLines; // keep the first record
        return util::LineVerdict::Record;
    });
    reader.read(is);
    data.recordLines = reader.stats().records;
    data.malformedLines = reader.stats().malformed;
    data.ignoredLines = reader.stats().ignored;
    std::sort(data.devices.begin(), data.devices.end(),
              [](const ReportDevice &a, const ReportDevice &b) {
                  return a.device < b.device;
              });
    return data;
}

TailAttribution
attributeTail(const FleetReportData &data)
{
    TailAttribution tail;
    for (const ReportDevice &d : data.devices)
        tail.fleet.merge(d.latency);

    tail.bin99 = tail.fleet.percentileBin(0.99);
    tail.bin999 = tail.fleet.percentileBin(0.999);
    tail.p99Us = tail.fleet.percentile(0.99);
    tail.p999Us = tail.fleet.percentile(0.999);
    if (tail.bin99 >= 0)
        tail.tail99 = tail.fleet.countFromBin(tail.bin99);
    if (tail.bin999 >= 0)
        tail.tail999 = tail.fleet.countFromBin(tail.bin999);

    std::map<std::string, CohortSummary> cohorts;
    for (const ReportDevice &d : data.devices) {
        TailShare s;
        s.device = d.device;
        s.cohort = d.cohort;
        s.requests = d.requests;
        s.readP99Us = d.readP99Us;
        if (tail.bin99 >= 0)
            s.tail99 = d.latency.countFromBin(tail.bin99);
        if (tail.bin999 >= 0)
            s.tail999 = d.latency.countFromBin(tail.bin999);
        if (tail.tail99 > 0) {
            s.share99 = static_cast<double>(s.tail99)
                / static_cast<double>(tail.tail99);
        }
        if (tail.tail999 > 0) {
            s.share999 = static_cast<double>(s.tail999)
                / static_cast<double>(tail.tail999);
        }
        tail.devices.push_back(s);

        CohortSummary &c = cohorts[d.cohort];
        c.cohort = d.cohort;
        ++c.devices;
        c.requests += d.requests;
        c.tail99 += s.tail99;
        c.meanReadP99Us += d.readP99Us;
        c.wafNum += d.wafNum;
        c.wafDen += d.wafDen;
    }
    std::sort(tail.devices.begin(), tail.devices.end(),
              [](const TailShare &a, const TailShare &b) {
                  if (a.tail99 != b.tail99)
                      return a.tail99 > b.tail99;
                  return a.device < b.device;
              });

    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < tail.devices.size(); ++i) {
        cum += tail.devices[i].tail99;
        if (tail.devicesForHalfTail == 0 && 2 * cum >= tail.tail99)
            tail.devicesForHalfTail = static_cast<int>(i) + 1;
        if (tail.devicesFor90Tail == 0 && 10 * cum >= 9 * tail.tail99)
            tail.devicesFor90Tail = static_cast<int>(i) + 1;
    }

    for (auto &[name, c] : cohorts) {
        (void)name;
        if (c.devices > 0)
            c.meanReadP99Us /= c.devices;
        if (tail.tail99 > 0) {
            c.share99 = static_cast<double>(c.tail99)
                / static_cast<double>(tail.tail99);
        }
        tail.cohorts.push_back(c);
    }
    return tail;
}

std::string
checkReconciliation(const FleetReportData &data,
                    const TailAttribution &tail)
{
    // Integer partition: per-device tail counts must sum exactly to
    // the fleet tail mass (shared bin layout, integer bins).
    std::uint64_t sum99 = 0, sum999 = 0;
    for (const TailShare &s : tail.devices) {
        sum99 += s.tail99;
        sum999 += s.tail999;
    }
    if (sum99 != tail.tail99) {
        return "p99 tail mass does not partition: devices sum to "
            + std::to_string(sum99) + ", fleet holds "
            + std::to_string(tail.tail99);
    }
    if (sum999 != tail.tail999) {
        return "p999 tail mass does not partition: devices sum to "
            + std::to_string(sum999) + ", fleet holds "
            + std::to_string(tail.tail999);
    }

    if (!data.haveRollup)
        return "";
    if (data.rollupDevices != data.devices.size()) {
        return "rollup records " + std::to_string(data.rollupDevices)
            + " devices, file parsed "
            + std::to_string(data.devices.size());
    }
    if (data.rollupLatency.count() != tail.fleet.count()) {
        return "rollup latency count "
            + std::to_string(data.rollupLatency.count())
            + " != merged device count "
            + std::to_string(tail.fleet.count());
    }
    if (data.rollupLatency.bins() != tail.fleet.bins())
        return "rollup latency bins differ from merged device bins";
    if (data.rollupLatency.min() != tail.fleet.min()
        || data.rollupLatency.max() != tail.fleet.max()) {
        return "rollup latency min/max differ from merged device bins";
    }
    // The rollup sum is the exact total of all observations; the
    // merged sum re-accumulates the exactly-rounded per-device sums,
    // so agreement is to rounding, not bit-exact.
    const double a = data.rollupLatency.sum();
    const double b = tail.fleet.sum();
    if (std::abs(a - b) > 1e-9 * std::max(std::abs(a), std::abs(b))) {
        return "rollup latency sum " + util::jsonNumber(a)
            + " differs from merged device sum " + util::jsonNumber(b);
    }
    return "";
}

HealthScan
scanHealth(std::istream &is)
{
    HealthScan scan;
    std::set<int> finished; // devices whose record run has ended
    std::optional<int> current;
    mon::HealthFollower follower([&](const mon::HealthRecord &rec) {
        double conf = 0.0;
        if (rec.json.get("model_mean_confidence", conf)
            || rec.json.get("model_confidence", conf)) {
            ++scan.modelRecords;
            scan.modelConfidence[rec.device] = conf;
        }
        if (rec.device != current) {
            if (current)
                finished.insert(*current);
            if (finished.count(rec.device))
                scan.ordered = false; // device resumed after a break
            current = rec.device;
        }
    });
    follower.read(is);
    scan.stats = follower.stats();
    scan.devices = follower.devicesSeen();
    return scan;
}

void
printReport(std::ostream &os, const FleetReportData &data,
            const TailAttribution &tail, int top_k)
{
    std::uint64_t requests = 0, max_fp = 0, total_fp = 0;
    for (const ReportDevice &d : data.devices) {
        requests += d.requests;
        max_fp = std::max(max_fp, d.footprintBytes);
        total_fp += d.footprintBytes;
    }
    os << "fleet: " << data.devices.size() << " devices, " << requests
       << " requests, " << tail.fleet.count()
       << " read-latency observations\n"
       << "fleet read latency: p50 "
       << util::fmt(tail.fleet.percentile(0.5), 0) << " us, p99 "
       << util::fmt(tail.p99Us, 0) << " us, p999 "
       << util::fmt(tail.p999Us, 0) << " us\n"
       << "tail mass: " << tail.tail99 << " observations at/above the "
       << "p99 bin, " << tail.tail999 << " at/above the p999 bin\n"
       << "tail concentration: " << tail.devicesForHalfTail
       << " devices cover half the p99 tail, " << tail.devicesFor90Tail
       << " cover 90%\n";
    if (!data.devices.empty()) {
        os << "device footprint: max " << max_fp << " bytes, mean "
           << total_fp / data.devices.size() << " bytes\n";
    }
    if (data.malformedLines > 0 || data.ignoredLines > 0
        || data.duplicateLines > 0) {
        os << "input: skipped " << data.malformedLines
           << " malformed line(s), ignored " << data.ignoredLines
           << " foreign line(s), dropped " << data.duplicateLines
           << " duplicate device line(s)\n";
    }

    os << "\ntop offenders (by p99 tail mass):\n";
    util::TextTable top;
    top.header({"device", "cohort", "requests", "dev p99", "tail@p99",
                "share", "tail@p999"});
    const std::size_t k = std::min<std::size_t>(
        tail.devices.size(),
        top_k > 0 ? static_cast<std::size_t>(top_k) : 0);
    for (std::size_t i = 0; i < k; ++i) {
        const TailShare &s = tail.devices[i];
        top.row({std::to_string(s.device), s.cohort,
                 std::to_string(s.requests), util::fmt(s.readP99Us, 0),
                 std::to_string(s.tail99), util::fmtPct(s.share99),
                 std::to_string(s.tail999)});
    }
    top.print(os);

    os << "\ncohorts:\n";
    util::TextTable cohorts;
    cohorts.header({"cohort", "devices", "requests", "mean dev p99",
                    "tail@p99", "share", "waf"});
    for (const CohortSummary &c : tail.cohorts) {
        const double waf = c.wafDen > 0
            ? static_cast<double>(c.wafNum)
                / static_cast<double>(c.wafDen)
            : 0.0;
        cohorts.row({c.cohort, std::to_string(c.devices),
                     std::to_string(c.requests),
                     util::fmt(c.meanReadP99Us, 0),
                     std::to_string(c.tail99), util::fmtPct(c.share99),
                     util::fmt(waf, 3)});
    }
    cohorts.print(os);
}

void
writeReportJson(std::ostream &os, const FleetReportData &data,
                const TailAttribution &tail, const HealthScan *health)
{
    os << "{\"devices\": " << data.devices.size()
       << ", \"malformed_lines\": " << data.malformedLines
       << ", \"ignored_lines\": " << data.ignoredLines
       << ", \"duplicate_lines\": " << data.duplicateLines
       << ", \"p99_us\": " << util::jsonNumber(tail.p99Us)
       << ", \"p999_us\": " << util::jsonNumber(tail.p999Us)
       << ", \"tail99\": " << tail.tail99
       << ", \"tail999\": " << tail.tail999
       << ", \"devices_for_half_tail\": " << tail.devicesForHalfTail
       << ", \"devices_for_90_tail\": " << tail.devicesFor90Tail
       << ", \"offenders\": [";
    bool first = true;
    for (const TailShare &s : tail.devices) {
        os << (first ? "" : ", ") << "{\"device\": " << s.device
           << ", \"cohort\": \"" << util::jsonEscape(s.cohort)
           << "\", \"tail99\": " << s.tail99
           << ", \"tail999\": " << s.tail999
           << ", \"share99\": " << util::jsonNumber(s.share99) << "}";
        first = false;
    }
    os << "], \"cohorts\": [";
    first = true;
    for (const CohortSummary &c : tail.cohorts) {
        os << (first ? "" : ", ") << "{\"cohort\": \""
           << util::jsonEscape(c.cohort)
           << "\", \"devices\": " << c.devices
           << ", \"requests\": " << c.requests
           << ", \"tail99\": " << c.tail99 << ", \"share99\": "
           << util::jsonNumber(c.share99) << ", \"mean_read_p99_us\": "
           << util::jsonNumber(c.meanReadP99Us)
           << ", \"waf_num\": " << c.wafNum
           << ", \"waf_den\": " << c.wafDen << ", \"waf\": "
           << util::jsonNumber(
                  c.wafDen > 0 ? static_cast<double>(c.wafNum)
                          / static_cast<double>(c.wafDen)
                               : 0.0)
           << "}";
        first = false;
    }
    os << "]";
    if (health != nullptr) {
        os << ", \"health\": {\"lines\": " << health->stats.records
           << ", \"malformed_lines\": " << health->stats.malformed
           << ", \"ignored_lines\": " << health->stats.ignored
           << ", \"devices\": " << health->devices
           << ", \"ordered\": " << (health->ordered ? "true" : "false")
           << ", \"model_records\": " << health->modelRecords << "}";
    }
    os << "}";
}

} // namespace flash::ssd::fleet
