#include "ssd/ssd_sim.hh"

#include <algorithm>

#include "ssd/health_monitor.hh"
#include "ssd/scrubber/scrubber.hh"

namespace flash::ssd
{

namespace
{

/** Record a wait/work child span, skipping zero-length waits. */
void
childSpan(util::SpanBuffer *sb, int parent, const char *cls,
          double start_us, double dur_us)
{
    if (!sb || dur_us <= 0.0)
        return;
    sb->time(sb->begin(cls, parent), start_us, dur_us);
}

/** Names of the per-channel read queue-delay histograms. */
std::vector<std::string>
channelQueueNames(int channels)
{
    std::vector<std::string> names;
    for (int ch = 0; ch < channels; ++ch)
        names.push_back("ssd.read.queue_us.ch" + std::to_string(ch));
    return names;
}

} // namespace

double
SimReport::waf() const
{
    FtlStats fs;
    fs.hostWrites = metrics.counter("ftl.host_writes");
    fs.migratedPages = metrics.counter("ftl.migrated_pages");
    return fs.waf();
}

void
SimReport::writeJson(std::ostream &os) const
{
    const auto c = [this](const char *name) { return metrics.counter(name); };
    os << "{\"policy\": \"" << util::jsonEscape(policy) << '"'
       << ", \"page_reads\": " << pageReads
       << ", \"page_writes\": " << pageWrites
       << ", \"ftl\": {\"host_writes\": " << c("ftl.host_writes")
       << ", \"gc_runs\": " << c("ftl.gc_runs")
       << ", \"migrated_pages\": " << c("ftl.migrated_pages")
       << ", \"erases\": " << c("ftl.erases")
       << ", \"refresh_pages\": " << c("ftl.refresh_pages")
       << ", \"refresh_erases\": " << c("ftl.refresh_erases")
       << ", \"switch_merges\": " << c("ftl.merge.switch")
       << ", \"partial_merges\": " << c("ftl.merge.partial")
       << ", \"full_merges\": " << c("ftl.merge.full")
       << ", \"waf_num\": " << c("ftl.waf.num")
       << ", \"waf_den\": " << c("ftl.waf.den")
       << ", \"waf\": " << util::jsonNumber(waf()) << "}"
       << ", \"metrics\": ";
    metrics.writeJson(os);
    os << "}";
}

SsdSim::OpMetrics::OpMetrics(util::MetricsRegistry &m,
                             const std::vector<std::string> &channel_names)
    : scrubWarm(m, "scrub.read.warm"), scrubCold(m, "scrub.read.cold"),
      readPageOps(m, "ssd.read.page_ops"),
      readAttempts(m, "ssd.read.attempts"),
      readSenseOps(m, "ssd.read.sense_ops"),
      readAssistReads(m, "ssd.read.assist_reads"),
      readAttemptUs(m, "ssd.read.attempt_us"),
      readLatencyUs(m, "ssd.read.latency_us"),
      readQueueUs(m, "ssd.read.queue_us"),
      readSenseUs(m, "ssd.read.sense_us"),
      readDecodeUs(m, "ssd.read.decode_us"),
      readXferUs(m, "ssd.read.xfer_us"),
      readOverlapUs(m, "ssd.read.overlap_us"),
      writePageOps(m, "ssd.write.page_ops"),
      writeLatencyUs(m, "ssd.write.latency_us"),
      writeQueueUs(m, "ssd.write.queue_us"),
      gcTriggeredWrites(m, "ssd.gc.triggered_writes"),
      gcMigratedPages(m, "ssd.gc.migrated_pages"),
      gcErases(m, "ssd.gc.erases"),
      writeGcStallUs(m, "ssd.write.gc_stall_us"),
      readRequestLatencyUs(m, "ssd.read.request_latency_us"),
      writeRequestLatencyUs(m, "ssd.write.request_latency_us")
{
    for (const std::string &name : channel_names)
        readQueueUsByChannel.emplace_back(m, name.c_str());
}

SsdSim::SsdSim(const SsdConfig &config, const SsdTiming &timing,
               ReadCostSource &read_cost, std::uint64_t seed)
    : config_(config), timing_(timing), readCost_(&read_cost),
      rng_(seed ^ util::mix64(0x73736473696dULL)), ftl_(makeFtl(config)),
      channelQueueNames_(channelQueueNames(config.channels)),
      ops_(metrics_, channelQueueNames_),
      planesPerChannel_(static_cast<std::uint32_t>(
          config.chipsPerChannel * config.diesPerChip * config.planesPerDie))
{
    config_.validate();
    timing_.validate();
    planeFree_.assign(static_cast<std::size_t>(config_.totalPlanes()), 0.0);
    channelFree_.assign(static_cast<std::size_t>(config_.channels), 0.0);
}

int
SsdSim::channelOf(int plane) const
{
    return static_cast<int>(
        planesPerChannel_.div(static_cast<std::uint32_t>(plane)));
}

void
SsdSim::attachScrubber(Scrubber *scrub)
{
    scrub_ = scrub;
    if (scrub_ && scrub_->enabled()) {
        ftl_->setEraseHook(
            [this](int plane, int block) { scrub_->noteErase(plane, block); });
    } else {
        ftl_->setEraseHook(nullptr);
    }
}

bool
SsdSim::scrubActive() const
{
    return scrub_ != nullptr && scrub_->enabled();
}

double
SsdSim::readPageOp(double arrival, const PhysAddr &addr,
                   util::SpanBuffer *sb, int parent)
{
    const int plane = addr.plane;
    const int ch = channelOf(plane);

    // Same per-session cost accounting as core::sessionLatencyUs:
    // every attempt pays command overhead plus a decode try, an
    // assist read is a single-voltage sense (command overhead only;
    // its sense op is counted in senseOps). Unlike the closed-form
    // session model, each attempt here crosses the channel on its
    // own: the controller cannot decode data it has not transferred,
    // so a retry costs sense -> transfer -> decode, and only the
    // sense occupies the die while only the transfer occupies the
    // channel.
    //
    // Blocks the scrubber probed recently sample the warm cost
    // distribution (sessions seeded from the re-warmed voltage
    // cache); everything else pays the cold distribution.
    const bool scrub_on = scrubActive();
    const bool warm = scrub_on && warmCost_ != nullptr
        && scrub_->isWarm(plane, addr.block, arrival);
    const ReadCost cost = (warm ? warmCost_ : readCost_)->sample(rng_);
    if (scrub_on)
        (warm ? ops_.scrubWarm : ops_.scrubCold).add();

    const int attempts = std::max(1, cost.attempts);
    const int assists = std::max(0, cost.assistReads);
    const int data_senses = std::max(0, cost.senseOps - assists);
    const bool pipelined = config_.pipelinedRetry;
    const double xfer_us = config_.pageKb * timing_.transferUsPerKb;

    // Resource occupancies of the whole session. They are not
    // wall-clock segments: under pipelined retry the stages of
    // consecutive attempts overlap.
    const double sense_total = cost.senseOps * timing_.senseUs;
    const double base_total = (attempts + assists) * timing_.readBaseUs;
    const double decode_total = attempts * timing_.decodeUs;
    const double xfer_total = attempts * xfer_us;

    // The die is claimed once for the whole session: assist senses
    // first, then the attempt senses. Sequential retry waits for the
    // previous attempt's decode verdict before re-sensing; pipelined
    // retry (CACHE-READ) speculatively senses the next voltage set as
    // soon as the previous sense has latched, hiding the sense behind
    // the transfer + decode it overlaps.
    const double start =
        std::max(arrival, planeFree_[static_cast<std::size_t>(plane)]);
    const double assist_us =
        assists * (timing_.readBaseUs + timing_.senseUs);
    double queue_us = start - arrival;
    double sense_ready = start + assist_us; // die free for the next sense
    double decode_done = sense_ready;       // previous attempt's verdict
    double last_sense_end = sense_ready;
    double done = sense_ready;
    // Attempt voltages: the measured total spread as evenly as
    // possible, earlier attempts taking the remainder (the first
    // attempt reads the full default set; retries shift fewer).
    const int senses_each = data_senses / attempts;
    const int senses_extra = data_senses % attempts;

    const int op = sb ? sb->begin("read_op", parent) : -1;
    childSpan(sb, op, "plane_wait", arrival, start - arrival);
    childSpan(sb, op, "assist_read", start, assist_us);

    for (int a = 0; a < attempts; ++a) {
        const int senses = senses_each + (a < senses_extra ? 1 : 0);
        const double sense_us =
            timing_.readBaseUs + senses * timing_.senseUs;
        const double sense_start =
            pipelined ? sense_ready : std::max(sense_ready, decode_done);
        const double sense_end = sense_start + sense_us;
        const double bus_start = std::max(
            sense_end, channelFree_[static_cast<std::size_t>(ch)]);
        const double bus_end = bus_start + xfer_us;
        channelFree_[static_cast<std::size_t>(ch)] = bus_end;
        queue_us += bus_start - sense_end;
        decode_done = bus_end + timing_.decodeUs;
        sense_ready = sense_end;
        last_sense_end = sense_end;
        done = decode_done;

        ops_.readAttemptUs.observe(decode_done - sense_start);
        if (sb) {
            const int att = sb->begin("attempt", op);
            sb->num(att, "senses", static_cast<double>(senses));
            sb->time(att, sense_start, decode_done - sense_start);
            childSpan(sb, att, "sense", sense_start, sense_us);
            childSpan(sb, att, "channel_wait", sense_end,
                      bus_start - sense_end);
            childSpan(sb, att, "xfer", bus_start, xfer_us);
            childSpan(sb, att, "decode", bus_end, timing_.decodeUs);
        }
    }
    planeFree_[static_cast<std::size_t>(plane)] = last_sense_end;

    // Stage time the pipeline hid: occupancy sum minus elapsed time.
    // Sequential retry has no overlap by construction, and the
    // subtraction below reproduces that exactly (same terms, same
    // order) — asserted by the decomposition tests.
    const double elapsed = done - arrival;
    const double overlap_us = (queue_us + sense_total + base_total
                               + decode_total + xfer_total)
        - elapsed;

    ops_.readPageOps.add();
    ops_.readAttempts.add(static_cast<std::uint64_t>(cost.attempts));
    ops_.readSenseOps.add(static_cast<std::uint64_t>(cost.senseOps));
    ops_.readAssistReads.add(static_cast<std::uint64_t>(cost.assistReads));
    ops_.readLatencyUs.observe(elapsed);
    ops_.readQueueUs.observe(queue_us);
    ops_.readQueueUsByChannel[static_cast<std::size_t>(ch)].observe(
        queue_us);
    ops_.readSenseUs.observe(sense_total);
    ops_.readDecodeUs.observe(decode_total);
    ops_.readXferUs.observe(xfer_total);
    if (pipelined)
        ops_.readOverlapUs.observe(overlap_us);
    if (sb) {
        sb->num(op, "plane", static_cast<double>(plane));
        sb->num(op, "channel", static_cast<double>(ch));
        sb->num(op, "attempts", static_cast<double>(cost.attempts));
        sb->num(op, "sense_ops", static_cast<double>(cost.senseOps));
        sb->num(op, "assist_reads",
                static_cast<double>(cost.assistReads));
        if (pipelined)
            sb->num(op, "pipelined", 1.0);
        sb->time(op, arrival, elapsed);
    }
    return done;
}

double
SsdSim::writePageOp(double arrival, std::int64_t lpn, util::SpanBuffer *sb,
                    int parent)
{
    const WriteEffect effect = ftl_->write(lpn);
    const int plane = effect.target.plane;
    const int ch = channelOf(plane);

    // Transfer the data to the chip, then program; GC work (valid
    // page moves and erases) occupies the plane first.
    const double bus_start =
        std::max(arrival, channelFree_[static_cast<std::size_t>(ch)]);
    const double xfer_us = config_.pageKb * timing_.transferUsPerKb;
    const double bus_done = bus_start + xfer_us;
    channelFree_[static_cast<std::size_t>(ch)] = bus_done;

    double gc_us = 0.0;
    if (effect.gcTriggered) {
        gc_us = effect.gcMigratedPages
                * (timing_.readBaseUs + timing_.senseUs + timing_.programUs)
            + effect.gcErases * timing_.eraseUs;
    }

    const double start = std::max(
        bus_done, planeFree_[static_cast<std::size_t>(plane)]);
    const double done = start + gc_us + timing_.programUs;
    planeFree_[static_cast<std::size_t>(plane)] = done;

    ops_.writePageOps.add();
    ops_.writeLatencyUs.observe(done - arrival);
    ops_.writeQueueUs.observe((bus_start - arrival) + (start - bus_done));
    if (effect.gcTriggered) {
        ops_.gcTriggeredWrites.add();
        ops_.gcMigratedPages.add(
            static_cast<std::uint64_t>(effect.gcMigratedPages));
        ops_.gcErases.add(static_cast<std::uint64_t>(effect.gcErases));
        ops_.writeGcStallUs.observe(gc_us);
    }
    const int merges =
        effect.switchMerges + effect.partialMerges + effect.fullMerges;
    if (sb && merges > 0) {
        // Log merges get their own root span so tail analysis can
        // attribute merge stalls separately from ordinary GC.
        const int mop = sb->begin("merge_op");
        sb->num(mop, "plane", static_cast<double>(plane));
        sb->num(mop, "switch", static_cast<double>(effect.switchMerges));
        sb->num(mop, "partial", static_cast<double>(effect.partialMerges));
        sb->num(mop, "full", static_cast<double>(effect.fullMerges));
        sb->num(mop, "pages", static_cast<double>(effect.gcMigratedPages));
        sb->num(mop, "erases", static_cast<double>(effect.gcErases));
        sb->time(mop, start, gc_us);
    }
    if (sb) {
        const int op = sb->begin("write_op", parent);
        sb->num(op, "lpn", static_cast<double>(lpn));
        sb->num(op, "plane", static_cast<double>(plane));
        sb->num(op, "channel", static_cast<double>(ch));
        sb->time(op, arrival, done - arrival);
        childSpan(sb, op, "channel_wait", arrival, bus_start - arrival);
        childSpan(sb, op, "xfer", bus_start, xfer_us);
        childSpan(sb, op, "plane_wait", bus_done, start - bus_done);
        childSpan(sb, op, "gc", start, gc_us);
        childSpan(sb, op, "program", start + gc_us, timing_.programUs);
    }
    return done;
}

double
SsdSim::submit(const trace::TraceRecord &req, double submit_us, int queue)
{
    // Background maintenance runs in the window up to this request's
    // submission — probes and refresh migration fill plane idle gaps
    // before the request is dispatched.
    if (scrubActive()) {
        ScrubHost scrub_host;
        scrub_host.config = &config_;
        scrub_host.timing = &timing_;
        scrub_host.planeFree = &planeFree_;
        scrub_host.ftl = ftl_.get();
        scrub_host.metrics = &metrics_;
        scrub_host.spans = spans_;
        scrub_->maintain(scrub_host, submit_us);
    }

    const std::int64_t page_bytes =
        static_cast<std::int64_t>(config_.pageKb) * 1024;
    const std::int64_t logical_pages = ftl_->logicalPages();
    const std::int64_t first =
        static_cast<std::int64_t>(req.offsetBytes) / page_bytes;
    const std::int64_t last =
        (static_cast<std::int64_t>(req.offsetBytes) + req.sizeBytes
         + page_bytes - 1)
        / page_bytes;

    util::SpanBuffer sb;
    int root = -1;
    if (spans_)
        root = sb.begin(req.isRead ? "host_read" : "host_write");

    double done = submit_us;
    for (std::int64_t p = first; p < last; ++p) {
        const std::int64_t lpn = p % logical_pages;
        double page_done;
        util::SpanBuffer *op_sb = spans_ ? &sb : nullptr;
        if (req.isRead) {
            const PhysAddr addr = ftl_->translate(lpn);
            page_done = readPageOp(submit_us, addr, op_sb, root);
        } else {
            page_done = writePageOp(submit_us, lpn, op_sb, root);
        }
        done = std::max(done, page_done);
    }

    const double latency = done - submit_us;
    (req.isRead ? ops_.readRequestLatencyUs : ops_.writeRequestLatencyUs)
        .observe(latency);
    if (spans_) {
        sb.num(root, "pages", static_cast<double>(last - first));
        sb.num(root, "offset", static_cast<double>(req.offsetBytes));
        sb.num(root, "size", static_cast<double>(req.sizeBytes));
        if (queue >= 0)
            sb.num(root, "queue", static_cast<double>(queue));
        sb.time(root, submit_us, latency);
        spans_->emit(sb);
    }
    if (health_) {
        health_->onRequest(submit_us, metrics_, ftl_.get(), scrub_);
        health_->noteCompletion(done);
    }
    return done;
}

SimReport
SsdSim::finishRun()
{
    if (health_)
        health_->finishRun(metrics_, ftl_.get(), scrub_);
    SimReport report;
    report.policy = readCost_->name();

    // Export the FTL's cumulative counters (including the exact WAF
    // integer ratio) as metrics so fleet rollups aggregate them
    // exactly; all names are emitted even at zero so the metric
    // schema is stable across FTLs.
    const FtlStats &fs = ftl_->stats();
    metrics_.add("ftl.host_writes", fs.hostWrites);
    metrics_.add("ftl.gc_runs", fs.gcRuns);
    metrics_.add("ftl.migrated_pages", fs.migratedPages);
    metrics_.add("ftl.erases", fs.erases);
    metrics_.add("ftl.refresh_pages", fs.refreshPages);
    metrics_.add("ftl.refresh_erases", fs.refreshErases);
    metrics_.add("ftl.merge.switch", fs.switchMerges);
    metrics_.add("ftl.merge.partial", fs.partialMerges);
    metrics_.add("ftl.merge.full", fs.fullMerges);
    metrics_.add("ftl.waf.num", fs.wafNumerator());
    metrics_.add("ftl.waf.den", fs.wafDenominator());

    report.metrics = std::move(metrics_);
    metrics_ = util::MetricsRegistry();
    ops_ = OpMetrics(metrics_, channelQueueNames_);
    readCost_->appendMetrics(report.metrics);
    if (const util::LatencyHistogram *h = report.metrics.findHistogram(
            "ssd.read.request_latency_us"))
        report.readLatencyUs = *h;
    report.pageReads = report.metrics.counter("ssd.read.page_ops");
    report.pageWrites = report.metrics.counter("ssd.write.page_ops");
    return report;
}

SimReport
SsdSim::run(const std::vector<trace::TraceRecord> &trace)
{
    for (const auto &req : trace)
        submit(req, req.timestampUs);
    return finishRun();
}

} // namespace flash::ssd
