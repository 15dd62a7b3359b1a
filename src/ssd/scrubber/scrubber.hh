/**
 * @file
 * Background scrub engine for the SSD simulator.
 *
 * The scrubber runs inside SsdSim's simulated timeline. Before each
 * trace request is dispatched, the simulator hands it the window up
 * to that request's arrival; the scrubber fires its periodic scans
 * that fall inside the window and, per scan, walks a round-robin
 * cursor over all physical blocks issuing **sentinel-only probe
 * reads** into per-plane idle gaps. A probe costs one assist read
 * (command overhead + one sense — no page transfer, no ECC decode)
 * and is only placed when it finishes before the next host request
 * arrives, so probing never delays foreground I/O. Each probe
 * re-infers the block's sentinel offset and marks the block warm:
 * for the configured warm lifetime the simulator samples foreground
 * reads of that block from the cheaper "warm" read-cost distribution
 * (measured with the first attempt seeded from a fresh offset)
 * instead of the cold one. With a core::VoltagePredictor attached,
 * every probed offset also trains the model.
 *
 * Blocks whose probed RBER crosses the configured threshold are
 * queued for **refresh**: valid pages
 * migrate through the FTL under a per-scan page budget (counted like
 * GC — same timing, same write-amplification accounting) and the
 * emptied block is erased. Migration only uses idle time; the
 * closing erase may overrun into the next request (bounded, counted
 * contention), which is the only way scrubbing can touch foreground
 * latency.
 *
 * Determinism: the scrubber is driven purely by the simulated clock,
 * trace order and its own counters; probe noise comes from a
 * dedicated read stream keyed by per-block probe numbers. Its
 * schedule, metrics ("scrub.*") and spans ("scrub_op"/"refresh_op")
 * are therefore byte-identical at any --threads N, and a disabled
 * scrubber (interval or budget 0) leaves the simulation bit-exactly
 * unchanged.
 */

#ifndef SENTINELFLASH_SSD_SCRUBBER_SCRUBBER_HH
#define SENTINELFLASH_SSD_SCRUBBER_SCRUBBER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "core/voltage_predictor.hh"
#include "ssd/config.hh"
#include "ssd/ftl/ftl_interface.hh"
#include "ssd/scrubber/scrub_device.hh"
#include "util/metrics.hh"
#include "util/span_trace.hh"

namespace flash::ssd
{

/** Policy knobs of the background scrubber. */
struct ScrubberConfig
{
    /** Simulated time between scans; <= 0 disables the scrubber. */
    double intervalUs = 10000.0;

    /**
     * Blocks examined per scan (each gets a probe if its plane has
     * an idle gap); <= 0 disables the scrubber.
     */
    int probeBudget = 64;

    /**
     * How long a probe keeps a block warm. Models the time until
     * retention drift makes the probed offset stale again.
     */
    double warmUs = 5.0e6;

    /**
     * Queue a block for refresh when its probed RBER reaches this;
     * >= 1 never triggers (RBER is a rate in [0, 1]).
     */
    double refreshRber = 1.0;

    /** Valid pages the refresh engine may migrate per scan. */
    int refreshPageBudget = 32;

    /**
     * Debug: audit the FTL's full invariants after every refresh
     * step (panics on violation). O(physical pages) per step — for
     * tests, not production runs.
     */
    bool checkInvariants = false;

    /** Whether this configuration runs at all. */
    bool
    enabled() const
    {
        return intervalUs > 0.0 && probeBudget > 0;
    }

    /** Reject nonsensical knob combinations (fatal). */
    void validate() const;
};

/**
 * Mutable view of the simulator internals one maintenance window may
 * touch. Built by SsdSim::run for each call; every pointer outlives
 * the call.
 */
struct ScrubHost
{
    const SsdConfig *config = nullptr;
    const SsdTiming *timing = nullptr;
    std::vector<double> *planeFree = nullptr; ///< per-plane next-free time
    FtlInterface *ftl = nullptr;              ///< any FTL in the zoo
    util::MetricsRegistry *metrics = nullptr;
    util::SpanTrace *spans = nullptr; ///< optional
};

/**
 * The background maintenance engine. One instance accompanies one
 * SsdSim run (its schedule state is part of the run); construct a
 * fresh one per run and attach it with SsdSim::attachScrubber before
 * calling run().
 */
class Scrubber
{
  public:
    /**
     * @param config Validated policy knobs.
     * @param device Probe-read source; must outlive the scrubber.
     * @param model Predictive voltage model (nullptr: round-robin
     *        probing). With a model, every probe's offset becomes a
     *        training observation and each scan probes the blocks the
     *        model is *least confident* about (uncertainty-priority,
     *        ties broken by probe count then block id) instead of
     *        walking the round-robin cursor; blocks whose chunk is
     *        model-confident also count as warm past their probe
     *        deadline, so the same probe budget holds a larger warm
     *        fraction.
     */
    Scrubber(const ScrubberConfig &config, ScrubDevice &device,
             core::VoltagePredictor *model = nullptr);

    /** Whether this scrubber does anything at all. */
    bool enabled() const { return config_.enabled(); }

    const ScrubberConfig &config() const { return config_; }

    /**
     * Run all maintenance due strictly before @p until_us (the next
     * host request's arrival): fire pending scans, place probes in
     * idle gaps, execute budgeted refresh steps.
     */
    void maintain(const ScrubHost &host, double until_us);

    /**
     * Whether (plane, block) was probed recently enough that a
     * foreground read at @p now_us can use the warm cost source.
     */
    bool isWarm(int plane, int block, double now_us) const;

    /** Fraction of all blocks warm at @p now_us (telemetry). */
    double warmFraction(double now_us) const;

    /**
     * FTL erase notification (wired via FtlInterface::setEraseHook): drops
     * the block's warmth and any pending refresh.
     */
    void noteErase(int plane, int block);

    /** Blocks currently queued for refresh. */
    std::size_t refreshQueueDepth() const { return refreshQueue_.size(); }

    /** The predictive model its probes train (nullptr: none). */
    const core::VoltagePredictor *model() const { return model_; }

  private:
    void init(const ScrubHost &host);
    void runScan(const ScrubHost &host, double scan_us, double until_us);
    /** Uncertainty-priority probe order of one scan (model runs). */
    std::vector<int> uncertainBlocks(int budget) const;
    /** Probe one block; false when its plane had no idle gap. */
    bool probeOne(const ScrubHost &host, int gid, double scan_us,
                  double until_us);
    void runRefresh(const ScrubHost &host, double scan_us, double until_us);

    int planeOf(int gid) const { return gid / blocksPerPlane_; }
    int blockOf(int gid) const { return gid % blocksPerPlane_; }

    ScrubberConfig config_;
    ScrubDevice *device_;
    core::VoltagePredictor *model_;

    bool init_ = false;
    int blocksPerPlane_ = 0;
    int totalBlocks_ = 0;
    double nextScanUs_ = 0.0;
    int cursor_ = 0; ///< round-robin probe cursor (global block id)

    std::vector<double> warmUntil_;          ///< per-block warm deadline
    std::vector<std::uint32_t> probeCount_;  ///< per-block probe number
    std::vector<std::uint8_t> queuedForRefresh_;
    std::deque<int> refreshQueue_;
};

} // namespace flash::ssd

#endif // SENTINELFLASH_SSD_SCRUBBER_SCRUBBER_HH
