#include "ssd/health_monitor.hh"

#include <algorithm>
#include <vector>

#include "core/inference.hh"
#include "core/sentinel_probe.hh"
#include "core/voltage_predictor.hh"
#include "nandsim/read_seq.hh"
#include "nandsim/snapshot.hh"
#include "ssd/ftl/ftl_interface.hh"
#include "ssd/scrubber/scrubber.hh"
#include "util/logging.hh"

namespace flash::ssd
{

namespace
{

/** Read-noise stream of the chip probes (see nand::ReadClock). */
constexpr std::uint64_t kProbeStream = 0;

/** Ratio guarded against an empty denominator. */
double
rate(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
field(std::ostream &os, const char *key, double v)
{
    os << ", \"" << key << "\": ";
    util::writeJsonValue(os, v);
}

} // namespace

HealthMonitor::HealthMonitor(std::ostream &os, HealthMonitorOptions options)
    : os_(&os), options_(options)
{
    util::fatalIf(options_.intervalUs <= 0.0,
                  "HealthMonitor: bad snapshot interval");
    util::fatalIf(options_.wlStride < 1, "HealthMonitor: bad probe stride");
}

void
HealthMonitor::beginRun(const std::string &context)
{
    context_ = context;
    windowOpen_ = false;
    windowStartUs_ = 0.0;
    lastUs_ = 0.0;
    lastCompletionUs_ = 0.0;
    windowBase_.fill(0);
}

void
HealthMonitor::onRequest(double t_us, const util::MetricsRegistry &metrics,
                         const FtlInterface *ftl, const Scrubber *scrub)
{
    if (!windowOpen_) {
        windowOpen_ = true;
        windowStartUs_ = t_us;
        lastUs_ = t_us;
        return;
    }
    lastUs_ = t_us;
    closeWindows(t_us, metrics, ftl, scrub);
}

void
HealthMonitor::noteCompletion(double t_us)
{
    lastCompletionUs_ = std::max(lastCompletionUs_, t_us);
}

void
HealthMonitor::finishRun(const util::MetricsRegistry &metrics,
                         const FtlInterface *ftl, const Scrubber *scrub)
{
    // The run ends when the last request completes, not when it was
    // submitted: a queue draining past the last arrival still gets
    // its boundary snapshots before the final partial window. Runs
    // shorter than one interval emit the final snapshot alone.
    const double end_us = std::max(lastUs_, lastCompletionUs_);
    if (windowOpen_)
        closeWindows(end_us, metrics, ftl, scrub);
    ssdSnapshot(end_us, metrics, ftl, scrub, true);
    windowOpen_ = false;
    lastCompletionUs_ = 0.0;
}

void
HealthMonitor::closeWindows(double t_us,
                            const util::MetricsRegistry &metrics,
                            const FtlInterface *ftl, const Scrubber *scrub)
{
    while (t_us >= windowStartUs_ + options_.intervalUs) {
        windowStartUs_ += options_.intervalUs;
        ssdSnapshot(windowStartUs_, metrics, ftl, scrub, false);
    }
}

void
HealthMonitor::ssdSnapshot(double t_us, const util::MetricsRegistry &metrics,
                           const FtlInterface *ftl, const Scrubber *scrub,
                           bool final_snapshot)
{
    // Window deltas of kWindowCounters: page reads, attempts, sense
    // ops and assist reads.
    std::array<double, kWindowCounters.size()> delta{};
    for (std::size_t i = 0; i < kWindowCounters.size(); ++i) {
        const std::uint64_t now = metrics.counter(kWindowCounters[i]);
        delta[i] = static_cast<double>(now - windowBase_[i]);
        windowBase_[i] = now;
    }
    const double d_reads = delta[0];
    const double d_retries = delta[1] - d_reads;
    const double d_sense = delta[2];
    const double d_assist = delta[3];

    *os_ << "{\"health\": \"ssd\", \"schema\": " << kSchemaVersion
         << ", \"window\": " << records_ << ", \"context\": \""
         << util::jsonEscape(context_) << '"';
    if (options_.deviceId >= 0)
        *os_ << ", \"device\": " << options_.deviceId;
    field(*os_, "t_us", t_us);
    field(*os_, "reads", d_reads);
    field(*os_, "retries", d_retries);
    field(*os_, "senses", d_sense);
    field(*os_, "assists", d_assist);
    field(*os_, "retries_per_read", rate(d_retries, d_reads));
    field(*os_, "sense_ops_per_read", rate(d_sense, d_reads));
    field(*os_, "assist_reads_per_read", rate(d_assist, d_reads));
    if (const util::LatencyHistogram *h =
            metrics.findHistogram("ssd.read.request_latency_us")) {
        field(*os_, "read_p50_us", h->percentile(0.50));
        field(*os_, "read_p99_us", h->percentile(0.99));
        field(*os_, "read_p999_us", h->percentile(0.999));
    }
    // Host-frontend queueing, when a frontend drives the run.
    if (const util::LatencyHistogram *h =
            metrics.findHistogram("frontend.queue_wait_us")) {
        field(*os_, "host_qwait_p50_us", h->percentile(0.50));
        field(*os_, "host_qwait_p99_us", h->percentile(0.99));
    }
    if (scrub != nullptr && scrub->enabled()) {
        // Event counts come from the run's registry, where the
        // scrubber counts each event once; the model's confidence,
        // the refresh queue and the warm fraction are device state.
        const auto count = [&metrics](const char *name) {
            return static_cast<double>(metrics.counter(name));
        };
        if (const core::VoltagePredictor *model = scrub->model()) {
            field(*os_, "model_observes", count("scrub.model.observes"));
            field(*os_, "model_mean_confidence", model->meanConfidence());
            field(*os_, "model_confident_fraction",
                  model->confidentFraction());
        }
        field(*os_, "scrub_probes", count("scrub.probes"));
        field(*os_, "scrub_rewarms", count("scrub.rewarms"));
        field(*os_, "scrub_refresh_done", count("scrub.refresh.completed"));
        field(*os_, "scrub_refresh_queue",
              static_cast<double>(scrub->refreshQueueDepth()));
        field(*os_, "scrub_warm_fraction", scrub->warmFraction(t_us));
        const double warm = count("scrub.read.warm");
        const double cold = count("scrub.read.cold");
        field(*os_, "scrub_warm_read_rate", rate(warm, warm + cold));
    }
    if (ftl != nullptr) {
        const FtlStats &fs = ftl->stats();
        field(*os_, "ftl_free_frac", ftl->freeFraction());
        field(*os_, "ftl_migrated_pages",
              static_cast<double>(fs.migratedPages));
        field(*os_, "ftl_erases", static_cast<double>(fs.erases));
        field(*os_, "ftl_merges",
              static_cast<double>(fs.switchMerges + fs.partialMerges
                                  + fs.fullMerges));
        field(*os_, "ftl_waf_num", static_cast<double>(fs.wafNumerator()));
        field(*os_, "ftl_waf_den", static_cast<double>(fs.wafDenominator()));
        field(*os_, "ftl_waf", fs.waf());
    }
    if (final_snapshot)
        *os_ << ", \"final\": 1";
    *os_ << "}\n";
    ++records_;
}

void
HealthMonitor::probeBlock(const nand::Chip &chip, int block,
                          const core::Characterization &tables,
                          const nand::SentinelOverlay &overlay,
                          const core::VoltagePredictor *model, double t_us)
{
    const nand::ChipGeometry &geom = chip.geometry();
    const auto defaults = chip.model().defaultVoltages();
    const int msb_page = chip.grayCode().msbPage();
    const nand::ReadClock clock(kProbeStream);
    const core::InferenceEngine engine(tables, defaults);

    double rber_sum = 0.0, rber_max = 0.0, d_sum = 0.0, off_sum = 0.0;
    int sampled = 0;
    std::vector<double> layer_sum(static_cast<std::size_t>(geom.layers),
                                  0.0);
    std::vector<int> layer_n(static_cast<std::size_t>(geom.layers), 0);

    for (int wl = 0; wl < geom.wordlinesPerBlock();
         wl += options_.wlStride) {
        nand::ReadSeq seq = clock.session(block, wl);
        const auto data = nand::WordlineSnapshot::dataRegion(
            chip, block, wl, seq.next());
        const double rber = data.pageRber(msb_page, defaults);
        rber_sum += rber;
        rber_max = std::max(rber_max, rber);
        // The very sentinel-only probe the background scrubber
        // issues, on the same noise draw as the direct count.
        const core::SentinelProbe p = core::probeSentinel(
            chip, block, wl, engine, overlay, seq.next());
        d_sum += p.dRate;
        off_sum += p.sentinelOffset;
        const std::size_t layer = static_cast<std::size_t>(geom.layerOf(wl));
        layer_sum[layer] += p.sentinelOffset;
        ++layer_n[layer];
        ++sampled;
    }

    const nand::BlockAge &age = chip.blockAge(block);
    *os_ << "{\"health\": \"chip\", \"schema\": " << kSchemaVersion
         << ", \"window\": " << records_ << ", \"context\": \""
         << util::jsonEscape(context_) << '"';
    if (options_.deviceId >= 0)
        *os_ << ", \"device\": " << options_.deviceId;
    field(*os_, "t_us", t_us);
    field(*os_, "block", block);
    field(*os_, "pe_cycles", age.peCycles);
    field(*os_, "retention_hours", age.effRetentionHours);
    field(*os_, "retention_temp_c", age.retentionTempC);
    field(*os_, "read_count", static_cast<double>(age.readCount));
    field(*os_, "wordlines", sampled);
    field(*os_, "rber_mean", rate(rber_sum, sampled));
    field(*os_, "rber_max", rber_max);
    field(*os_, "d_rate_mean", rate(d_sum, sampled));
    if (model) {
        // Predicted-vs-probed: the model's closed-form offset under
        // the block's current epoch against the probes' mean offset.
        const core::VoltagePrediction pred =
            model->predict(block, core::epochOf(age));
        field(*os_, "model_predicted_offset",
              static_cast<double>(pred.sentinelOffset));
        field(*os_, "model_residual",
              rate(off_sum, sampled) - pred.predicted);
        field(*os_, "model_confidence", pred.confidence);
        field(*os_, "model_confident", pred.confident ? 1.0 : 0.0);
    }
    field(*os_, "sentinel_offset_mean", rate(off_sum, sampled));
    // Only sampled layers appear; index i of "layer_offset" is the
    // drift of layer "layers"[i].
    *os_ << ", \"layers\": [";
    bool first = true;
    for (std::size_t l = 0; l < layer_n.size(); ++l) {
        if (!layer_n[l])
            continue;
        *os_ << (first ? "" : ", ") << l;
        first = false;
    }
    *os_ << "], \"layer_offset\": [";
    first = true;
    for (std::size_t l = 0; l < layer_n.size(); ++l) {
        if (!layer_n[l])
            continue;
        *os_ << (first ? "" : ", ");
        util::writeJsonValue(*os_, layer_sum[l] / layer_n[l]);
        first = false;
    }
    *os_ << ']';
    *os_ << "}\n";
    ++records_;
}

} // namespace flash::ssd
