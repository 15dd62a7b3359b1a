/**
 * @file
 * Fleet driver: N independent simulated SSDs evaluated as one
 * population.
 *
 * A fleet run instantiates up to ~1024 devices, each a full
 * SsdSim + HostFrontend stack with its own deterministic seed and a
 * device profile (P/E cycles, retention age, temperature, workload
 * mix, arrival process) drawn from a configurable distribution over
 * weighted cohorts. Devices are completely independent, so the fleet
 * runs them through the deterministic, statically partitioned
 * util::parallelFor; every device writes only its own result slot and
 * the rollup reduction runs sequentially afterwards in device-id
 * order.
 *
 * Determinism is the contract everything else rests on:
 *
 *  - Each device's profile and seeds derive from
 *    hashCombine(fleet seed, device id) only — never from thread
 *    assignment or evaluation order.
 *  - Per-device metrics accumulate into private MetricsRegistry
 *    instances, merged into the fleet rollup ("fleet.ssd.*",
 *    "fleet.frontend.*", "fleet.scrub.*") with mergePrefixed().
 *    Histogram bins are integers and sums are util::ExactSum, so the
 *    rollup bytes are a pure function of the per-device results: any
 *    --threads N and any evaluation order produce identical output.
 *  - Health telemetry goes to per-device buffers stamped with
 *    "device": id, flushed in device-id order — a shared health file
 *    never holds interleaved partial JSON lines.
 *
 * writeFleetJsonLines() persists one JSON line per device (profile,
 * throughput, read-latency percentiles, memory footprint and the
 * lossless read-latency histogram bins, both from the host-side
 * frontend.read_latency_us) plus one rollup line; tools/fleet_report
 * consumes the file for fleet-level read-tail attribution.
 */

#ifndef SENTINELFLASH_SSD_FLEET_FLEET_HH
#define SENTINELFLASH_SSD_FLEET_FLEET_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "ssd/config.hh"
#include "ssd/host_frontend.hh"
#include "ssd/read_cost.hh"
#include "ssd/scrubber/scrub_device.hh"
#include "ssd/scrubber/scrubber.hh"
#include "util/metrics.hh"

namespace flash::ssd::fleet
{

/** One weighted slice of the fleet population. */
struct CohortSpec
{
    std::string name = "base";
    double weight = 1.0; ///< relative share of devices

    /** P/E cycle range (inclusive, uniform per device). */
    std::uint32_t peMin = 1000;
    std::uint32_t peMax = 3000;

    /** Retention age range in hours (uniform per device). */
    double retentionHoursMin = 720.0;
    double retentionHoursMax = 8760.0;

    /** Storage temperature. */
    double tempC = 25.0;

    /** MSR-like workload replayed by the cohort's devices. */
    std::string workload = "usr_0";

    /** Arrival process of the cohort's host frontends. */
    ArrivalMode mode = ArrivalMode::Closed;
    int queues = 2;
    int queueDepth = 8;
    double ratePerQueueUs = 0.02; ///< open modes only

    /**
     * Mapping stack of the cohort's devices: FTL kind and GC victim
     * policy override FleetConfig::ssd per device, so one fleet can
     * A/B page-mapping against the FAST hybrid across cohorts.
     * Deterministic per cohort — assigning them consumes no profile
     * RNG draws, so adding them never reshuffles existing fleets.
     */
    FtlKind ftl = FtlKind::Page;
    GcVictimPolicy gcPolicy = GcVictimPolicy::Greedy;

    void validate() const;
};

/** One device's identity, drawn from the cohort distribution. */
struct DeviceProfile
{
    int device = 0;          ///< fleet-wide id, 0-based
    int cohort = 0;          ///< index into the cohort list
    std::string cohortName;

    std::uint32_t peCycles = 0;
    double retentionHours = 0.0;
    double tempC = 25.0;

    std::string workload;
    ArrivalMode mode = ArrivalMode::Closed;
    int queues = 1;
    int queueDepth = 1;
    double ratePerQueueUs = 0.02;

    /** Per-device mapping stack (copied from the cohort). */
    FtlKind ftl = FtlKind::Page;
    GcVictimPolicy gcPolicy = GcVictimPolicy::Greedy;

    /** Root of every per-device stream (trace, frontend, sim). */
    std::uint64_t seed = 0;
};

/** Whole-fleet configuration. */
struct FleetConfig
{
    int devices = 16;
    std::uint64_t seed = 1;
    int requests = 256; ///< trace records per device

    /**
     * Per-device organization; defaults to smallDeviceConfig() so a
     * 1024-device fleet stays well under a GiB of mapping tables.
     */
    SsdConfig ssd;
    SsdTiming timing;

    /** Background scrubbing per device (default: disabled). */
    ScrubberConfig scrub;

    /**
     * Per-device predictive voltage model (opt-in). Each device gets
     * its own core::VoltagePredictor trained by its scrub probes; the
     * scrubber switches to uncertainty-priority probing, model
     * counters roll up as "fleet.model.*", and the model's footprint
     * joins the device's footprint bytes. Without scrubbing the model
     * rides along untrained: its rollup counters stay zero, and
     * health records carry no model fields, because those come from
     * the scrubber that trains the model.
     */
    bool model = false;

    /** Model knobs of the per-device predictors. */
    core::VoltageModelConfig modelConfig;

    /** Health snapshot interval; <= 0 disables health telemetry. */
    double healthIntervalUs = 0.0;

    /** Cohort distribution; empty uses defaultCohorts(). */
    std::vector<CohortSpec> cohorts;

    /**
     * Evaluation order over device ids (a permutation of
     * [0, devices)); empty = identity. Results and rollups are
     * invariant to it — exposed so tests and CI can prove that.
     */
    std::vector<int> order;

    FleetConfig();

    void validate() const;
};

/**
 * A deliberately small per-device organization (2 channels x 1 chip
 * x 1 die x 2 planes, 48 blocks of 64 x 4 KiB pages): 48 MiB of
 * physical space and well under 1 MiB of FTL tables per device, so
 * fleets of hundreds of devices fit comfortably in memory.
 */
SsdConfig smallDeviceConfig();

/** Three-cohort default population: light / mainstream / worn. */
std::vector<CohortSpec> defaultCohorts();

/**
 * Draw every device's profile from the cohort distribution. Device
 * d's draws come from Rng(hashCombine(cfg.seed, d)) alone, so the
 * vector is independent of thread count and evaluation order.
 */
std::vector<DeviceProfile> drawProfiles(const FleetConfig &cfg);

/** Trace-generation seed of one device. */
std::uint64_t traceSeed(const DeviceProfile &p);

/** Host-frontend configuration (incl. arrival seed) of one device. */
FrontendConfig frontendConfig(const DeviceProfile &p);

/**
 * Per-profile resources of a fleet run. coldCost() may return one
 * shared source for many devices: fleet workers call sample()
 * concurrently, which is safe for FixedReadCost and EmpiricalReadCost
 * (sampling only reads the sample vector; each device brings its own
 * Rng).
 */
class FleetEnv
{
  public:
    virtual ~FleetEnv() = default;

    /** Read-cost source of a device's cold (unscrubbed) reads. */
    virtual ReadCostSource &coldCost(const DeviceProfile &p) = 0;

    /** Warm-read source when scrubbing keeps blocks warm (optional). */
    virtual ReadCostSource *warmCost(const DeviceProfile &)
    {
        return nullptr;
    }

    /**
     * Scrub-probe source for one device (only consulted when
     * cfg.scrub is enabled). Default: a SyntheticScrubDevice derived
     * from the profile.
     */
    virtual std::unique_ptr<ScrubDevice>
    makeScrubDevice(const DeviceProfile &p);
};

/** FleetEnv sampling every read from one fixed cost (tests, CI). */
class FixedFleetEnv : public FleetEnv
{
  public:
    explicit FixedFleetEnv(FixedReadCost cold,
                           FixedReadCost warm = FixedReadCost(1))
        : cold_(cold), warm_(warm)
    {
    }

    ReadCostSource &coldCost(const DeviceProfile &) override
    {
        return cold_;
    }

    ReadCostSource *warmCost(const DeviceProfile &) override
    {
        return &warm_;
    }

  private:
    FixedReadCost cold_;
    FixedReadCost warm_;
};

/**
 * Chip-free ScrubDevice: probe results are a deterministic hash of
 * (profile seed, plane, block, probe_seq), with RBER / drift levels
 * scaled from the profile's P/E cycles and retention age. Lets
 * scrub-enabled fleets (and their tests) run without instantiating
 * a nandsim chip per cohort.
 */
class SyntheticScrubDevice : public ScrubDevice
{
  public:
    explicit SyntheticScrubDevice(const DeviceProfile &p);

    ScrubProbe probe(int plane, int block,
                     std::uint64_t probe_seq) override;

  private:
    std::uint64_t seed_;
    double baseRber_;
    int baseOffset_;
    core::BlockEpoch epoch_;
};

/** One device's outcome. */
struct DeviceResult
{
    DeviceProfile profile;
    std::uint64_t requests = 0;
    double makespanUs = 0.0;
    double iops = 0.0;
    /** Percentiles of the frontend.read_latency_us in metrics. */
    double readP50Us = 0.0;
    double readP99Us = 0.0;
    double readP999Us = 0.0;

    /** The device's full metrics registry (ssd.* / frontend.* / ...). */
    util::MetricsRegistry metrics;

    /** Device-state + metrics heap bytes at end of run. */
    std::size_t footprintBytes = 0;

    /** Buffered health JSON lines ("" when telemetry is off). */
    std::string healthLines;
};

/** The whole fleet's outcome. */
struct FleetResult
{
    std::vector<DeviceResult> devices; ///< device-id order

    /**
     * Fleet rollup: every device registry merged under the "fleet."
     * prefix, plus fleet.devices / fleet.requests counters and the
     * fleet.device.read_p99_us distribution of per-device p99s.
     */
    util::MetricsRegistry rollup;

    std::size_t maxFootprintBytes = 0;
    std::size_t totalFootprintBytes = 0;
};

/** Run one device to completion (exposed for the degeneracy tests). */
DeviceResult runDevice(const FleetConfig &cfg, const DeviceProfile &p,
                       FleetEnv &env);

/**
 * Run the whole fleet on @p threads threads (static partitioning of
 * the evaluation order). Output is byte-identical at any thread
 * count and for any cfg.order permutation.
 */
FleetResult runFleet(const FleetConfig &cfg, FleetEnv &env,
                     int threads = 1);

/**
 * Persist the fleet as JSON lines: one {"fleet": "device", ...}
 * record per device — profile, throughput, read percentiles,
 * footprint and the lossless "read_latency" bins
 * (LatencyHistogram::writeBinsJson) — then one {"fleet": "rollup",
 * ...} record with the merged read-latency bins and the full rollup
 * registry. A device line's bins and its read_p50/p99/p999_us come
 * from one histogram, the host-side frontend.read_latency_us (reads
 * only, completion minus host arrival; null when the device served
 * no reads), and the rollup's bins are fleet.frontend.read_latency_us.
 * Byte-deterministic for a fixed run.
 */
void writeFleetJsonLines(const FleetResult &fleet, std::ostream &os);

/** Concatenate the per-device health buffers in device-id order. */
void writeHealthLines(const FleetResult &fleet, std::ostream &os);

/** Printable name of an arrival mode ("closed" / "fixed" / "poisson"). */
std::string arrivalModeName(ArrivalMode mode);

} // namespace flash::ssd::fleet

#endif // SENTINELFLASH_SSD_FLEET_FLEET_HH
