#include "ssd/scrubber/scrubber.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace flash::ssd
{

void
ScrubberConfig::validate() const
{
    util::fatalIf(std::isnan(intervalUs) || std::isnan(warmUs)
                      || std::isnan(refreshRber),
                  "ScrubberConfig: NaN knob");
    util::fatalIf(warmUs <= 0.0, "ScrubberConfig: non-positive warm time");
    util::fatalIf(refreshRber <= 0.0,
                  "ScrubberConfig: non-positive refresh RBER threshold");
    util::fatalIf(refreshPageBudget < 0,
                  "ScrubberConfig: negative refresh page budget");
}

Scrubber::Scrubber(const ScrubberConfig &config, ScrubDevice &device,
                   core::VoltageCache *cache,
                   core::VoltagePredictor *model)
    : config_(config), device_(&device), cache_(cache), model_(model)
{
    config_.validate();
}

void
Scrubber::init(const ScrubHost &host)
{
    blocksPerPlane_ = host.config->blocksPerPlane;
    totalBlocks_ = host.config->totalPlanes() * blocksPerPlane_;
    warmUntil_.assign(static_cast<std::size_t>(totalBlocks_), -1.0);
    probeCount_.assign(static_cast<std::size_t>(totalBlocks_), 0);
    queuedForRefresh_.assign(static_cast<std::size_t>(totalBlocks_), 0);
    nextScanUs_ = config_.intervalUs;
    init_ = true;
}

void
Scrubber::maintain(const ScrubHost &host, double until_us)
{
    if (!enabled())
        return;
    if (!init_)
        init(host);
    while (nextScanUs_ < until_us) {
        const double scan_us = nextScanUs_;
        nextScanUs_ += config_.intervalUs;
        runScan(host, scan_us, until_us);
    }
}

void
Scrubber::runScan(const ScrubHost &host, double scan_us, double until_us)
{
    host.metrics->add("scrub.scans");
    if (model_ != nullptr && totalBlocks_ > 0) {
        // Uncertainty-priority probing: spend the scan's budget on
        // the blocks the model is least confident about, so probes
        // stop revisiting chunks the model already predicts well.
        for (const int gid : uncertainBlocks(config_.probeBudget))
            probeOne(host, gid, scan_us, until_us);
    } else {
        for (int i = 0; i < config_.probeBudget && totalBlocks_ > 0;
             ++i) {
            const int gid = cursor_;
            cursor_ = (cursor_ + 1) % totalBlocks_;
            probeOne(host, gid, scan_us, until_us);
        }
    }
    if (config_.refreshPageBudget > 0 && !refreshQueue_.empty())
        runRefresh(host, scan_us, until_us);
}

std::vector<int>
Scrubber::uncertainBlocks(int budget) const
{
    // Deterministic total order: confidence ascending, then probe
    // count ascending (unprobed blocks first within a chunk), then
    // block id. Depends only on the model/probe state, never on
    // thread assignment.
    std::vector<int> gids(static_cast<std::size_t>(totalBlocks_));
    for (int gid = 0; gid < totalBlocks_; ++gid)
        gids[static_cast<std::size_t>(gid)] = gid;
    std::vector<double> conf(static_cast<std::size_t>(totalBlocks_));
    for (int gid = 0; gid < totalBlocks_; ++gid)
        conf[static_cast<std::size_t>(gid)] = model_->confidence(gid);
    const auto before = [&](int a, int b) {
        const double ca = conf[static_cast<std::size_t>(a)];
        const double cb = conf[static_cast<std::size_t>(b)];
        if (ca != cb)
            return ca < cb;
        const std::uint32_t pa = probeCount_[static_cast<std::size_t>(a)];
        const std::uint32_t pb = probeCount_[static_cast<std::size_t>(b)];
        if (pa != pb)
            return pa < pb;
        return a < b;
    };
    const std::size_t take = std::min(gids.size(),
                                      static_cast<std::size_t>(
                                          std::max(budget, 0)));
    std::partial_sort(gids.begin(),
                      gids.begin() + static_cast<std::ptrdiff_t>(take),
                      gids.end(), before);
    gids.resize(take);
    return gids;
}

bool
Scrubber::probeOne(const ScrubHost &host, int gid, double scan_us,
                   double until_us)
{
    const int plane = planeOf(gid);
    const int block = blockOf(gid);

    // A probe is one sentinel-only assist read: command overhead plus
    // a single sense — no page transfer, no ECC decode.
    const double dur_us = host.timing->readBaseUs + host.timing->senseUs;
    double &free = (*host.planeFree)[static_cast<std::size_t>(plane)];
    const double start = std::max(scan_us, free);
    if (start + dur_us > until_us) {
        // No idle gap on this plane before the next host request; the
        // probe would delay foreground I/O, so it is dropped.
        host.metrics->add("scrub.probe_skipped");
        return false;
    }

    const ScrubProbe probe = device_->probe(
        plane, block, probeCount_[static_cast<std::size_t>(gid)]++);
    free = start + dur_us;
    warmUntil_[static_cast<std::size_t>(gid)] = free + config_.warmUs;
    host.metrics->add("scrub.probes");
    host.metrics->observe("scrub.probe_us", dur_us);
    host.metrics->observe("scrub.probe_rber_ppm", probe.rber * 1e6);
    if (cache_) {
        cache_->rewarm(gid, probe.epoch, probe.sentinelOffset);
        host.metrics->add("scrub.rewarms");
    }
    if (model_) {
        model_->observe(gid, probe.epoch, probe.sentinelOffset);
        host.metrics->add("scrub.model.observes");
    }

    if (host.spans) {
        util::SpanBuffer sb;
        const int op = sb.begin("scrub_op");
        sb.num(op, "plane", static_cast<double>(plane));
        sb.num(op, "block", static_cast<double>(block));
        sb.num(op, "offset", static_cast<double>(probe.sentinelOffset));
        sb.num(op, "rber_ppm", probe.rber * 1e6);
        sb.time(op, start, dur_us);
        host.spans->emit(sb);
    }

    if (config_.refreshRber < 1.0 && probe.rber >= config_.refreshRber
        && !queuedForRefresh_[static_cast<std::size_t>(gid)]
        && host.ftl->refreshCandidate(plane, block)) {
        queuedForRefresh_[static_cast<std::size_t>(gid)] = 1;
        refreshQueue_.push_back(gid);
        host.metrics->add("scrub.refresh.queued");
    }
    return true;
}

void
Scrubber::runRefresh(const ScrubHost &host, double scan_us, double until_us)
{
    int budget = config_.refreshPageBudget;
    const double page_cost_us = host.timing->readBaseUs
        + host.timing->senseUs + host.timing->programUs;

    // One pass over the queue at most: every iteration pops the head
    // and either finishes the block, drops it, or rotates it to the
    // back for the next scan.
    for (std::size_t attempts = refreshQueue_.size();
         attempts > 0 && budget > 0 && !refreshQueue_.empty(); --attempts) {
        const int gid = refreshQueue_.front();
        refreshQueue_.pop_front();
        if (!queuedForRefresh_[static_cast<std::size_t>(gid)])
            continue; // erased by GC (or refresh) since it was queued

        const int plane = planeOf(gid);
        const int block = blockOf(gid);
        double &free = (*host.planeFree)[static_cast<std::size_t>(plane)];
        const double start = std::max(scan_us, free);
        const int valid = host.ftl->blockValidPages(plane, block);
        const int fit = until_us > start
            ? static_cast<int>((until_us - start) / page_cost_us)
            : 0;
        const int max_pages = std::min({budget, valid, fit});
        if (valid > 0 && max_pages <= 0) {
            // Plane has no idle room before the next request; retry
            // next scan. (Refresh migration never preempts reads.)
            host.metrics->add("scrub.refresh.stalled");
            refreshQueue_.push_back(gid);
            continue;
        }

        const RefreshStep step =
            host.ftl->refreshBlock(plane, block, max_pages);
        if (config_.checkInvariants)
            host.ftl->checkInvariants();
        if (step.busy) {
            queuedForRefresh_[static_cast<std::size_t>(gid)] = 0;
            host.metrics->add("scrub.refresh.dropped");
            continue;
        }

        const double migrate_us =
            (step.migratedPages + step.gcMigratedPages) * page_cost_us
            + step.gcErases * host.timing->eraseUs;
        const double erase_us =
            step.erased ? host.timing->eraseUs : 0.0;
        if (migrate_us + erase_us > 0.0) {
            free = start + migrate_us + erase_us;
            // Only the closing erase may run past the next arrival;
            // that bounded overrun is the scrubber's entire
            // foreground contention.
            if (free > until_us)
                host.metrics->observe("scrub.refresh.overrun_us",
                                      free - until_us);
        }

        budget -= step.migratedPages;
        if (step.migratedPages > 0) {
            host.metrics->add(
                "scrub.refresh.pages",
                static_cast<std::uint64_t>(step.migratedPages));
        }
        if (step.erased)
            host.metrics->add("scrub.refresh.erases");

        if (host.spans && (step.migratedPages > 0 || step.erased)) {
            util::SpanBuffer sb;
            const int op = sb.begin("refresh_op");
            sb.num(op, "plane", static_cast<double>(plane));
            sb.num(op, "block", static_cast<double>(block));
            sb.num(op, "pages", static_cast<double>(step.migratedPages));
            sb.num(op, "erased", step.erased ? 1.0 : 0.0);
            sb.time(op, start, migrate_us + erase_us);
            if (migrate_us > 0.0) {
                const int mig = sb.begin("migrate", op);
                sb.time(mig, start, migrate_us);
            }
            if (erase_us > 0.0) {
                const int er = sb.begin("erase", op);
                sb.time(er, start + migrate_us, erase_us);
            }
            host.spans->emit(sb);
        }

        if (step.done) {
            queuedForRefresh_[static_cast<std::size_t>(gid)] = 0;
            host.metrics->add("scrub.refresh.completed");
        } else {
            refreshQueue_.push_back(gid); // more valid pages remain
        }
    }
}

bool
Scrubber::isWarm(int plane, int block, double now_us) const
{
    if (!init_)
        return false;
    const int gid = plane * blocksPerPlane_ + block;
    if (warmUntil_[static_cast<std::size_t>(gid)] > now_us)
        return true;
    // A model-confident chunk predicts the offset without any probe;
    // the probed-but-once requirement keeps a fresh model from
    // claiming blocks the device never visited at all.
    return model_ != nullptr
        && probeCount_[static_cast<std::size_t>(gid)] > 0
        && model_->confidentBlock(gid);
}

double
Scrubber::warmFraction(double now_us) const
{
    if (!init_ || totalBlocks_ == 0)
        return 0.0;
    int warm = 0;
    for (int gid = 0; gid < totalBlocks_; ++gid)
        warm += isWarm(planeOf(gid), blockOf(gid), now_us) ? 1 : 0;
    return static_cast<double>(warm) / static_cast<double>(totalBlocks_);
}

void
Scrubber::noteErase(int plane, int block)
{
    if (!init_)
        return;
    const int gid = plane * blocksPerPlane_ + block;
    warmUntil_[static_cast<std::size_t>(gid)] = -1.0;
    queuedForRefresh_[static_cast<std::size_t>(gid)] = 0;
    if (cache_)
        cache_->invalidate(gid);
}

} // namespace flash::ssd
