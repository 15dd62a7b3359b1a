/**
 * @file
 * Device-health telemetry (a bench's `--out DIR` health.jsonl).
 *
 * Emits a JSON-lines time series with two record kinds:
 *
 *  - {"health": "ssd", ...}: periodic snapshots of the running SSD
 *    simulation — page reads in the window, retries / sense ops /
 *    assist reads per read (windowed deltas of the "ssd.read.*"
 *    counters), cumulative request-latency percentiles, scrub
 *    progress (probes, refresh queue, warm fractions) and
 *    the scrubber's model confidence when the device scrubs, and
 *    mapping-layer health when the FTL is passed in.
 *    Driven by SsdSim via setHealthMonitor(): onRequest() once per
 *    trace record, finishRun() for the closing snapshot; each call
 *    hands over the device's live registry, FTL and scrubber, so a
 *    snapshot reads only the device it describes.
 *
 *  - {"health": "chip", ...}: on-demand probes of one block's device
 *    state — per-block observed RBER (mean/max over sampled
 *    wordlines at the default voltages, MSB page), the sentinel
 *    error-difference rate, the inferred sentinel offset, and the
 *    per-layer inferred-offset drift, next to the block's P/E cycles
 *    and effective retention. The benches call probeBlock() at aging
 *    checkpoints to chart drift against P/E + retention.
 *
 * Every record carries "schema" (the version of this format, see
 * kSchemaVersion) and "window" (a per-monitor monotone record index
 * that beginRun() does NOT reset). Consumers (src/mon) use the index
 * for stream-integrity checks — a forward jump means lines were
 * lost, a backward one means the emitting process restarted — and
 * schema 2 "ssd" records carry the raw integer window deltas
 * (reads / retries / senses / assists) next to the derived rates, so
 * a monitor's summed totals reconcile with integer equality against
 * the run's final `ssd.read.*` (or fleet rollup) counters.
 *
 * All probes draw their sensing noise from read stream 0, so a health
 * file is byte-identical across reruns and does not perturb the
 * experiment's own read sequences. Schema: see
 * DESIGN.md §12 and §17.
 */

#ifndef SENTINELFLASH_SSD_HEALTH_MONITOR_HH
#define SENTINELFLASH_SSD_HEALTH_MONITOR_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>

#include "core/characterization.hh"
#include "nandsim/chip.hh"
#include "util/metrics.hh"

namespace flash::core
{
class VoltagePredictor;
} // namespace flash::core

namespace flash::ssd
{

class FtlInterface;
class Scrubber;

/** Knobs of the health time series. */
struct HealthMonitorOptions
{
    /** Simulated time between periodic SSD snapshots. */
    double intervalUs = 100000.0;

    /** Chip probes sample every Nth wordline. */
    int wlStride = 16;

    /**
     * Fleet device id stamped on every record as "device": N (< 0:
     * omitted — the single-device benches keep their schema). Fleet
     * runs give every device its own monitor writing to a private
     * buffer and flush the buffers in device-id order, so a shared
     * health file never holds interleaved partial lines.
     */
    int deviceId = -1;
};

/** JSON-lines health recorder; see the file comment. */
class HealthMonitor
{
  public:
    /** "schema" field stamped on every record. */
    static constexpr int kSchemaVersion = 2;

    /** @param os Caller-owned sink; must outlive the monitor. */
    explicit HealthMonitor(std::ostream &os,
                           HealthMonitorOptions options = {});

    /**
     * Start a new observation run (e.g. one workload/policy pair).
     * Resets the windowed-delta state and stamps every following
     * record with @p context.
     */
    void beginRun(const std::string &context);

    /**
     * Advance the simulated clock; emits one "ssd" snapshot whenever
     * a full interval has elapsed since the last one. A snapshot
     * reads the device passed in: its live @p metrics, its @p ftl
     * (nullptr: no "ftl_*" fields) and its @p scrub (nullptr or
     * disabled: no "scrub_*" or "model_*" fields).
     */
    void onRequest(double t_us, const util::MetricsRegistry &metrics,
                   const FtlInterface *ftl = nullptr,
                   const Scrubber *scrub = nullptr);

    /**
     * Note a request's completion time. Completions extend the run
     * past the last submission, so a queue draining after the final
     * arrival still gets its boundary snapshots and the closing
     * snapshot is stamped when the device goes quiet.
     */
    void noteCompletion(double t_us);

    /**
     * Close the run: emit the boundary snapshots of the drain tail
     * (windows between the last submission and the last completion),
     * then the final partial window ("final": 1). Runs shorter than
     * one interval still emit their final snapshot.
     */
    void finishRun(const util::MetricsRegistry &metrics,
                   const FtlInterface *ftl = nullptr,
                   const Scrubber *scrub = nullptr);

    /**
     * Probe one block's device state and emit a "chip" record at
     * simulated time @p t_us. @p tables drive the offset inference;
     * @p overlay locates the sentinel cells. @p model adds its
     * predicted offset, its residual against the probed mean and the
     * block's confidence (nullptr skips them), which is what lets
     * fleet_report attribute tail mass to low-confidence blocks.
     */
    void probeBlock(const nand::Chip &chip, int block,
                    const core::Characterization &tables,
                    const nand::SentinelOverlay &overlay,
                    const core::VoltagePredictor *model, double t_us);

    /** Records emitted so far (both kinds). */
    std::uint64_t records() const { return records_; }

  private:
    /** Emit the boundary snapshots up to @p t_us. */
    void closeWindows(double t_us, const util::MetricsRegistry &metrics,
                      const FtlInterface *ftl, const Scrubber *scrub);
    void ssdSnapshot(double t_us, const util::MetricsRegistry &metrics,
                     const FtlInterface *ftl, const Scrubber *scrub,
                     bool final_snapshot);

    std::ostream *os_;
    HealthMonitorOptions options_;
    std::string context_;
    std::uint64_t records_ = 0;

    bool windowOpen_ = false;
    double windowStartUs_ = 0.0;
    double lastUs_ = 0.0;
    double lastCompletionUs_ = 0.0;
    /** Registry counters behind the windowed read deltas. */
    static constexpr std::array<const char *, 4> kWindowCounters{
        "ssd.read.page_ops", "ssd.read.attempts", "ssd.read.sense_ops",
        "ssd.read.assist_reads"};

    /** kWindowCounters' values at the last snapshot (0 after beginRun). */
    std::array<std::uint64_t, kWindowCounters.size()> windowBase_{};
};

} // namespace flash::ssd

#endif // SENTINELFLASH_SSD_HEALTH_MONITOR_HH
