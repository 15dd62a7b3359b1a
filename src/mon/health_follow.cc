#include "mon/health_follow.hh"

#include <climits>
#include <utility>

#include "util/logging.hh"

namespace flash::mon
{

HealthFollower::HealthFollower(Sink sink)
    : sink_(std::move(sink)),
      reader_([this](util::JsonValue &json) { return onObject(json); })
{
    util::fatalIf(!sink_, "HealthFollower: null sink");
}

FollowStats
HealthFollower::stats() const
{
    FollowStats s = continuity_;
    static_cast<util::JsonLinesStats &>(s) = reader_.stats();
    return s;
}

util::LineVerdict
HealthFollower::onObject(util::JsonValue &json)
{
    HealthRecord rec;
    if (!json.get("health", rec.kind))
        return util::LineVerdict::Ignored; // some other JSON-lines record
    std::uint64_t n = 0;
    if (!json.get("window", n)
        || static_cast<double>(n) != json.find("window")->number)
        return util::LineVerdict::Malformed; // absent, negative or not whole
    rec.window = static_cast<std::int64_t>(n);
    if (rec.kind == "ssd") {
        // The raw deltas are what monitor totals sum and reconcile.
        double delta = 0.0;
        for (const char *key : {"reads", "retries", "senses", "assists"}) {
            if (!json.get(key, delta))
                return util::LineVerdict::Malformed;
        }
    }
    json.get("context", rec.context);
    if (json.get("device", n, INT_MAX))
        rec.device = static_cast<int>(n);
    json.get("t_us", rec.tUs);
    double final_flag = 0.0;
    rec.finalSnapshot = json.get("final", final_flag) && final_flag != 0.0;

    // Per-device window continuity. The emitting monitor stamps a
    // strictly increasing index on every record, so anything other
    // than last+1 is a discontinuity worth reporting.
    auto [it, inserted] = lastWindow_.try_emplace(rec.device, rec.window);
    if (!inserted) {
        if (rec.window > it->second + 1) {
            ++continuity_.gaps;
            continuity_.missedWindows +=
                static_cast<std::uint64_t>(rec.window - it->second - 1);
        } else if (rec.window <= it->second) {
            ++continuity_.restarts;
        }
        it->second = rec.window;
    }

    rec.json = std::move(json);
    sink_(rec);
    return util::LineVerdict::Record;
}

} // namespace flash::mon
