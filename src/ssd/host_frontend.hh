/**
 * @file
 * Event-driven multi-queue host frontend (NVMe-flavored).
 *
 * Requests are partitioned round-robin over Q submission queues (one
 * per host stream), each with its own queue-depth cap and arrival
 * process, and serviced by a discrete-event core against one SsdSim:
 * the core repeatedly picks the queue with the earliest next
 * submission time (tie-break: lowest queue id), dispatches the
 * request with SsdSim::submit(), and records the completion the
 * device returns synchronously. A queue at its depth cap frees a slot
 * when any of its outstanding requests completes (out-of-order
 * completion, NVMe-style).
 *
 * Arrival processes (per queue, deterministic):
 *  - Closed: a fixed population of queueDepth workers with zero think
 *    time — a new request is issued the moment a slot frees, so the
 *    device sees a constant backlog (the classic QD sweep driver).
 *  - OpenFixed: arrivals at a fixed interarrival time; submission is
 *    delayed past the arrival while the queue is at its cap (host
 *    queueing shows up as frontend.queue_wait_us).
 *  - OpenPoisson: exponential interarrivals from a per-queue
 *    counter-based stream seeded from (seed, queue id).
 *
 * Every per-queue next-submission time is non-decreasing and the core
 * always dispatches the global minimum, so submissions reach the
 * simulator in non-decreasing order (its FIFO resource model's
 * contract) and the whole run is a deterministic function of
 * (trace, config, seed) — byte-identical metrics/spans across reruns
 * and thread counts.
 */

#ifndef SENTINELFLASH_SSD_HOST_FRONTEND_HH
#define SENTINELFLASH_SSD_HOST_FRONTEND_HH

#include <cstdint>
#include <vector>

#include "ssd/ssd_sim.hh"
#include "trace/trace.hh"

namespace flash::ssd
{

/** How a queue's requests arrive. */
enum class ArrivalMode
{
    Closed,      ///< queueDepth workers, zero think time
    OpenFixed,   ///< fixed interarrival = 1 / ratePerQueue
    OpenPoisson, ///< exponential interarrival, mean 1 / ratePerQueue
};

/** Host-side queueing configuration. */
struct FrontendConfig
{
    int queues = 4;     ///< submission/completion queue pairs
    int queueDepth = 32; ///< outstanding cap per queue

    ArrivalMode mode = ArrivalMode::Closed;

    /** Open modes: arrival rate per queue, requests per microsecond. */
    double ratePerQueueUs = 0.001;

    /** Seeds the per-queue arrival streams (OpenPoisson). */
    std::uint64_t seed = 1;

    void
    validate() const
    {
        util::fatalIf(queues < 1 || queueDepth < 1,
                      "FrontendConfig: bad queue organization");
        util::fatalIf(mode != ArrivalMode::Closed
                          && ratePerQueueUs <= 0.0,
                      "FrontendConfig: open mode needs a positive rate");
    }
};

/** Results of one frontend run. */
struct FrontendReport
{
    SimReport device; ///< the SsdSim report for the same run

    std::uint64_t requests = 0;
    double makespanUs = 0.0; ///< first submission to last completion

    /** Completed requests per second over the makespan. */
    double iops = 0.0;

    /**
     * Host-visible read latency (arrival to completion, host queue
     * wait included): percentiles of frontend.read_latency_us, which
     * run() sets once from the registry after the run.
     */
    double readP50Us = 0.0;
    double readP99Us = 0.0;
    double readP999Us = 0.0;
};

/**
 * The frontend. Drives a caller-owned SsdSim (attach spans / health /
 * scrubber to the sim as usual); one run() per simulator, as with
 * SsdSim::run(). Adds "frontend.*" metrics to the device report:
 * counters frontend.requests / frontend.queues / frontend.queue_depth
 * and histograms frontend.queue_wait_us (every request, submission
 * minus arrival) and frontend.read_latency_us (reads only, completion
 * minus host arrival). Host-side write latency is not recorded; the
 * device's ssd.write.request_latency_us covers writes.
 */
class HostFrontend
{
  public:
    HostFrontend(const FrontendConfig &config, SsdSim &sim);

    /**
     * Partition @p trace round-robin over the queues, replace its
     * timestamps with the configured arrival process, and run the
     * event core to completion.
     */
    FrontendReport run(const std::vector<trace::TraceRecord> &trace);

  private:
    FrontendConfig config_;
    SsdSim *sim_;
};

} // namespace flash::ssd

#endif // SENTINELFLASH_SSD_HOST_FRONTEND_HH
