/**
 * @file
 * Trace-driven SSD simulator (SSDSim-style).
 *
 * Requests split into page operations; each plane and each channel is
 * a FIFO resource with a next-free time, so queueing delay emerges
 * from contention. A page read is decomposed into its retry attempts:
 * every attempt is an explicit sense (plane) -> transfer (channel) ->
 * decode (controller) chain whose voltage count comes from the read
 * policy's per-read cost (attempts / sense ops / assist reads)
 * sampled from an empirical distribution measured on the chip model.
 * With SsdConfig::pipelinedRetry the controller overlaps attempt
 * N+1's sensing with attempt N's transfer + decode (CACHE-READ style
 * speculation, cf. Park et al., "Reducing SSD Read Latency by
 * Optimizing Read-Retry").
 *
 * Every page operation's latency is decomposed into queueing / sense /
 * transfer / decode / GC-stall components that feed the run's metrics
 * registry ("ssd.*" counters and histograms) and, when attached, a
 * causal span trace. Each request's latency (completion minus
 * submission) is recorded once, in ssd.read.request_latency_us or
 * ssd.write.request_latency_us; every report field derives from the
 * registry.
 *
 * An optional background Scrubber (ssd/scrubber) runs in the gaps
 * between requests: it probes blocks with sentinel-only assist reads
 * during plane idle time, re-warms the inferred-voltage cache, and
 * refreshes worn blocks through the FTL. Foreground reads of a block
 * the scrubber has recently probed sample the (cheaper) warm
 * read-cost source when one is attached.
 *
 * Driving the simulator: run() replays a whole trace at its recorded
 * arrival times. A host frontend (ssd/host_frontend) instead calls
 * submit() once per request at the submission time its queueing model
 * produced — submission times must be non-decreasing, page operations
 * dispatch immediately and the completion time returns synchronously
 * — and finishRun() to close the report. run() is exactly a submit()
 * loop, so both paths share one timing model.
 */

#ifndef SENTINELFLASH_SSD_SSD_SIM_HH
#define SENTINELFLASH_SSD_SSD_SIM_HH

#include <memory>
#include <string>
#include <vector>

#include "ssd/config.hh"
#include "ssd/ftl/ftl_factory.hh"
#include "ssd/read_cost.hh"
#include "trace/trace.hh"
#include "util/fast_div.hh"
#include "util/metrics.hh"
#include "util/span_trace.hh"

namespace flash::ssd
{

class HealthMonitor;
class Scrubber;

/**
 * Results of one trace replay. The metrics registry is the record:
 * each request's latency is observed once, into
 * ssd.read.request_latency_us or ssd.write.request_latency_us
 * (completion minus submission). readLatencyUs, pageReads and
 * pageWrites are copies finishRun() takes from the registry, and
 * nothing else writes them.
 */
struct SimReport
{
    std::string policy;

    /** Copy of ssd.read.request_latency_us (empty when no reads). */
    util::LatencyHistogram readLatencyUs;
    std::uint64_t pageReads = 0;  ///< ssd.read.page_ops
    std::uint64_t pageWrites = 0; ///< ssd.write.page_ops

    /**
     * Per-op decomposition, queue and FTL metrics: histograms
     * ssd.read.{latency,queue,sense,xfer,decode,attempt}_us,
     * per-channel queue delay ssd.read.queue_us.ch<K>, write-side GC
     * stalls ssd.write.gc_stall_us, the request-level
     * ssd.{read,write}.request_latency_us, ssd.read.overlap_us
     * under pipelined retry, and the FTL's cumulative counters
     * ftl.{host_writes,gc_runs,migrated_pages,erases,refresh_pages,
     * refresh_erases}, ftl.merge.{switch,partial,full} and
     * ftl.waf.{num,den}.
     */
    util::MetricsRegistry metrics;

    /** FtlStats::waf() of the ftl.* counters. */
    double waf() const;

    /**
     * Serialize the whole report (policy, page counts, FTL counters
     * and the metrics registry) as one JSON object. Deterministic
     * byte-for-byte for a fixed run.
     */
    void writeJson(std::ostream &os) const;
};

/**
 * The simulator. One instance replays one trace; construct a fresh
 * one per run (the FTL state is part of the run). Validates the
 * organization and timing at construction.
 */
class SsdSim
{
  public:
    SsdSim(const SsdConfig &config, const SsdTiming &timing,
           ReadCostSource &read_cost, std::uint64_t seed);

    // The per-op metric handles point into this instance's registry.
    SsdSim(const SsdSim &) = delete;
    SsdSim &operator=(const SsdSim &) = delete;

    /**
     * Attach a causal span sink: one "host_read" / "host_write" root
     * per request with a "read_op" / "write_op" child per page
     * operation. A read_op decomposes into "plane_wait" /
     * "assist_read" children plus one "attempt" child per retry
     * attempt, itself a "sense" / "channel_wait" / "xfer" / "decode"
     * chain (attempt spans overlap under pipelined retry); a write_op
     * into "channel_wait" / "xfer" / "plane_wait" / "gc" / "program"
     * children on the simulated clock. Requests are emitted in
     * submission order, so the serialized spans are deterministic for
     * a fixed run. Pass nullptr to detach; the sink must outlive the
     * run.
     */
    void setSpanTrace(util::SpanTrace *spans) { spans_ = spans; }

    /**
     * Attach a device-health monitor: onRequest() is called once per
     * request (with the submission clock and the live metrics),
     * noteCompletion() with each request's completion time,
     * finishRun() once at the end of the run, each time with this
     * device's registry, FTL and scrubber. Pass nullptr to detach;
     * the monitor must outlive the run.
     */
    void setHealthMonitor(HealthMonitor *health) { health_ = health; }

    /**
     * Attach a background scrubber (nullptr detaches). The scrubber
     * runs between requests inside the run; when enabled, the FTL's
     * erase hook is routed to it so erased blocks lose their warmth
     * and cache entries. One scrubber accompanies one run — construct
     * a fresh one per simulation; it must outlive the run. A disabled
     * scrubber (interval or probe budget 0) leaves the simulation
     * byte-identical to running with none attached.
     */
    void attachScrubber(Scrubber *scrub);

    /**
     * Read-cost source sampled for blocks the scrubber currently
     * keeps warm (typically measured with a pre-warmed voltage
     * cache). Only consulted when an enabled scrubber is attached;
     * cold blocks keep sampling the constructor's source. Must
     * outlive the run; nullptr detaches.
     */
    void setWarmReadCost(ReadCostSource *warm) { warmCost_ = warm; }

    /** The FTL (tests inspect invariants and refresh state). */
    const FtlInterface &ftl() const { return *ftl_; }

    /**
     * Heap bytes held by the device state that persists across runs:
     * the FTL mapping tables plus the plane/channel next-free clocks.
     * The live metrics registry is excluded — it moves into each
     * finishRun() report, whose own footprintBytes() covers it — and
     * so is the heap behind its per-op handles (the per-channel
     * handles and their names).
     */
    std::size_t footprintBytes() const
    {
        return sizeof(SsdSim) + ftl_->footprintBytes()
            + (planeFree_.size() + channelFree_.size()) * sizeof(double);
    }

    /** Live metrics of the current run (frontend counters merge here). */
    util::MetricsRegistry &metrics() { return metrics_; }

    /**
     * Serve one request at @p submit_us (>= every earlier submission
     * — the plane/channel FIFOs assume dispatch in submission order).
     * Background maintenance runs in the window up to @p submit_us
     * first. Returns the request's completion time on the simulated
     * clock. @p queue tags the request's span root with the
     * submission queue it came from (< 0: untagged).
     */
    double submit(const trace::TraceRecord &req, double submit_us,
                  int queue = -1);

    /**
     * Close the run started by the first submit(): emit the final
     * health snapshot, collect FTL stats, move the metrics into the
     * returned report and fill its readLatencyUs / pageReads /
     * pageWrites from them. The simulator's resource clocks persist,
     * so a subsequent submit() starts a new report against the same
     * device state.
     */
    SimReport finishRun();

    /** Replay a trace at its arrival times: submit() + finishRun(). */
    SimReport run(const std::vector<trace::TraceRecord> &trace);

  private:
    /**
     * Handles of every metric a page op or request updates, bound to
     * the live registry once (DESIGN.md §10). finishRun() moves that
     * registry into the report, which invalidates the bound slots, so
     * it rebuilds this struct right after the move.
     */
    struct OpMetrics
    {
        OpMetrics(util::MetricsRegistry &m,
                  const std::vector<std::string> &channel_names);

        util::CounterHandle scrubWarm, scrubCold;
        util::CounterHandle readPageOps, readAttempts, readSenseOps,
            readAssistReads;
        util::HistogramHandle readAttemptUs, readLatencyUs, readQueueUs,
            readSenseUs, readDecodeUs, readXferUs, readOverlapUs;
        std::vector<util::HistogramHandle> readQueueUsByChannel;
        util::CounterHandle writePageOps;
        util::HistogramHandle writeLatencyUs, writeQueueUs;
        util::CounterHandle gcTriggeredWrites, gcMigratedPages, gcErases;
        util::HistogramHandle writeGcStallUs;
        util::HistogramHandle readRequestLatencyUs, writeRequestLatencyUs;
    };

    /** Channel of a global plane index. */
    int channelOf(int plane) const;

    /** Whether an enabled scrubber is attached. */
    bool scrubActive() const;

    double readPageOp(double arrival, const PhysAddr &addr,
                      util::SpanBuffer *sb, int parent);
    double writePageOp(double arrival, std::int64_t lpn,
                       util::SpanBuffer *sb, int parent);

    SsdConfig config_;
    SsdTiming timing_;
    ReadCostSource *readCost_;
    util::Rng rng_;
    std::unique_ptr<FtlInterface> ftl_;
    util::MetricsRegistry metrics_;
    std::vector<std::string> channelQueueNames_; ///< ops_ points at these
    OpMetrics ops_;
    util::SpanTrace *spans_ = nullptr;
    HealthMonitor *health_ = nullptr;
    Scrubber *scrub_ = nullptr;
    ReadCostSource *warmCost_ = nullptr;

    std::vector<double> planeFree_;
    std::vector<double> channelFree_;
    util::FastDiv planesPerChannel_; ///< for channelOf()
};

} // namespace flash::ssd

#endif // SENTINELFLASH_SSD_SSD_SIM_HH
