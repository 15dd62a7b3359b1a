/**
 * @file
 * Streaming fleet monitor: frames, alerts, reconciliation.
 *
 * FleetMonitor glues the mon building blocks together: a
 * HealthFollower re-assembles and demultiplexes the health stream, a
 * FleetSeries keeps bounded per-device window rings with exact
 * rollups, a RuleEngine evaluates alert rules on every new window,
 * and an OutlierDetector screens cohorts at frame boundaries.
 *
 * Frames are keyed to *simulated* time: the monitor tracks the
 * maximum t_us seen across all records and emits one dashboard frame
 * (cohort rollups, top offenders, active alerts) whenever that clock
 * crosses a frameIntervalUs boundary. Because the frame clock, the
 * series, the rules and the ExactSum rollups are all pure functions
 * of the stream content, the rendered frames and the alert
 * JSON-lines are byte-identical however the bytes were chunked and
 * whatever --threads value produced the stream — the producer
 * already guarantees content-identical streams across thread counts.
 */

#ifndef SENTINELFLASH_MON_MONITOR_HH
#define SENTINELFLASH_MON_MONITOR_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mon/health_follow.hh"
#include "mon/rules.hh"
#include "mon/timeseries.hh"

namespace flash::mon
{

/** Dashboard / alerting knobs. */
struct MonitorConfig
{
    double frameIntervalUs = 400000.0; ///< sim-time between frames
    int topK = 8;                      ///< offender rows per frame
    std::size_t ringCapacity = 64;     ///< windows kept per device
    std::vector<AlertRule> rules;      ///< empty => defaultRules()
    double madK = 5.0; ///< outlier robust z-score threshold
    bool madEnabled = true;

    void validate() const;
};

/** The stock rule set the fleet_monitor tool ships with. */
std::vector<AlertRule> defaultRules();

/** Streaming monitor; see the file comment. */
class FleetMonitor
{
  public:
    /**
     * @param frames where dashboard frames and the final summary go.
     * @param alerts optional alert JSON-lines sink (may be nullptr).
     */
    FleetMonitor(MonitorConfig cfg, std::ostream &frames,
                 std::ostream *alerts);

    /** Consume one chunk of health-stream bytes (any chunking). */
    void feed(std::string_view chunk);

    /** End of stream: flush a last frame and the summary block. */
    void finish();

    FollowStats followStats() const;
    const FleetSeries &series() const { return series_; }

    /** Fire events emitted so far (rules + outliers). */
    std::uint64_t alertsFired() const { return fired_; }

    /** Worst severity fired (Info when nothing fired). */
    Severity worstSeverity() const { return worst_; }

    /** Frames emitted (excluding the final summary). */
    std::uint64_t framesEmitted() const { return frames_emitted_; }

    /**
     * Reconcile the monitor's exact rollup against the fleet rollup
     * counters of the same run (see reconcileReadTotals()). Empty
     * string when consistent.
     */
    std::string
    reconcile(const std::map<std::string, std::uint64_t> &counters) const;

  private:
    void onRecord(const HealthRecord &rec);
    void emitAlerts(std::vector<Alert> &alerts);
    void emitFrame(double frameTUs);
    void noteFired(const Alert &a);

    MonitorConfig cfg_;
    std::ostream &frames_;
    std::ostream *alerts_;
    HealthFollower follower_;
    FleetSeries series_;
    RuleEngine engine_;
    OutlierDetector outliers_;

    /** Active alerts keyed (rule name, device) for frame rendering. */
    std::map<std::pair<std::string, int>, Alert> active_;

    double simTUs_ = 0.0;       ///< max t_us seen (the frame clock)
    std::int64_t lastFrame_ = 0; ///< frame boundaries already emitted
    std::uint64_t frames_emitted_ = 0;
    std::uint64_t fired_ = 0;
    Severity worst_ = Severity::Info;
    bool finished_ = false;
};

} // namespace flash::mon

#endif // SENTINELFLASH_MON_MONITOR_HH
