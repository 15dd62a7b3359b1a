#include "ssd/fleet/fleet.hh"

#include <algorithm>
#include <sstream>

#include "ssd/ftl/ftl_factory.hh"
#include "ssd/health_monitor.hh"
#include "ssd/ssd_sim.hh"
#include "trace/msr_workloads.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace flash::ssd::fleet
{

namespace
{

/** Salts keeping the per-device derived streams disjoint. */
constexpr std::uint64_t kTraceSalt = 0x7ace;
constexpr std::uint64_t kFrontendSalt = 0xf8e;
constexpr std::uint64_t kScrubSalt = 0x5c2b;

} // namespace

void
CohortSpec::validate() const
{
    util::fatalIf(name.empty(), "CohortSpec: empty name");
    util::fatalIf(!(weight > 0.0), "CohortSpec: non-positive weight");
    util::fatalIf(peMax < peMin, "CohortSpec: peMax < peMin");
    util::fatalIf(retentionHoursMin < 0.0
                      || retentionHoursMax < retentionHoursMin,
                  "CohortSpec: bad retention range");
    util::fatalIf(queues < 1 || queueDepth < 1,
                  "CohortSpec: bad queue organization");
    util::fatalIf(mode != ArrivalMode::Closed && ratePerQueueUs <= 0.0,
                  "CohortSpec: open mode needs a positive rate");
    trace::msrWorkload(workload); // fatal when unknown
}

FleetConfig::FleetConfig() : ssd(smallDeviceConfig())
{
    scrub.intervalUs = 0.0; // scrubbing is opt-in per fleet
}

void
FleetConfig::validate() const
{
    util::fatalIf(devices < 1 || devices > 4096,
                  "FleetConfig: devices out of [1, 4096]");
    util::fatalIf(requests < 1, "FleetConfig: no requests");
    util::fatalIf(healthIntervalUs < 0.0,
                  "FleetConfig: negative health interval");
    ssd.validate();
    timing.validate();
    scrub.validate();
    modelConfig.validate();
    for (const CohortSpec &c : cohorts)
        c.validate();
    if (!order.empty()) {
        util::fatalIf(static_cast<int>(order.size()) != devices,
                      "FleetConfig: order size != devices");
        std::vector<char> seen(static_cast<std::size_t>(devices), 0);
        for (int id : order) {
            util::fatalIf(id < 0 || id >= devices
                              || seen[static_cast<std::size_t>(id)],
                          "FleetConfig: order is not a permutation");
            seen[static_cast<std::size_t>(id)] = 1;
        }
    }
}

SsdConfig
smallDeviceConfig()
{
    SsdConfig cfg;
    cfg.channels = 2;
    cfg.chipsPerChannel = 1;
    cfg.diesPerChip = 1;
    cfg.planesPerDie = 2;
    cfg.blocksPerPlane = 48;
    cfg.pagesPerBlock = 64;
    cfg.pageKb = 4;
    return cfg;
}

std::vector<CohortSpec>
defaultCohorts()
{
    CohortSpec light;
    light.name = "light";
    light.weight = 0.3;
    light.peMin = 200;
    light.peMax = 1500;
    light.retentionHoursMin = 24.0;
    light.retentionHoursMax = 2000.0;
    light.workload = "rsrch_0";
    light.queues = 2;
    light.queueDepth = 4;

    CohortSpec mainstream;
    mainstream.name = "mainstream";
    mainstream.weight = 0.5;
    mainstream.peMin = 1500;
    mainstream.peMax = 5000;
    mainstream.retentionHoursMin = 720.0;
    mainstream.retentionHoursMax = 8760.0;
    mainstream.workload = "usr_0";
    mainstream.queues = 2;
    mainstream.queueDepth = 8;

    CohortSpec worn;
    worn.name = "worn";
    worn.weight = 0.2;
    worn.peMin = 5000;
    worn.peMax = 8000;
    worn.retentionHoursMin = 8760.0;
    worn.retentionHoursMax = 17520.0;
    worn.tempC = 40.0;
    worn.workload = "prn_0";
    worn.queues = 4;
    worn.queueDepth = 8;

    return {light, mainstream, worn};
}

std::vector<DeviceProfile>
drawProfiles(const FleetConfig &cfg)
{
    const std::vector<CohortSpec> cohorts =
        cfg.cohorts.empty() ? defaultCohorts() : cfg.cohorts;
    double total_weight = 0.0;
    for (const CohortSpec &c : cohorts)
        total_weight += c.weight;

    std::vector<DeviceProfile> profiles;
    profiles.reserve(static_cast<std::size_t>(cfg.devices));
    for (int d = 0; d < cfg.devices; ++d) {
        // Everything about device d derives from (fleet seed, d):
        // profiles never depend on thread count or evaluation order.
        util::Rng rng(util::hashCombine(cfg.seed,
                                        static_cast<std::uint64_t>(d)));
        double r = rng.uniform() * total_weight;
        std::size_t idx = 0;
        while (idx + 1 < cohorts.size() && r >= cohorts[idx].weight) {
            r -= cohorts[idx].weight;
            ++idx;
        }
        const CohortSpec &c = cohorts[idx];

        DeviceProfile p;
        p.device = d;
        p.cohort = static_cast<int>(idx);
        p.cohortName = c.name;
        p.peCycles = c.peMin
            + static_cast<std::uint32_t>(rng.uniformInt(
                  static_cast<std::uint64_t>(c.peMax - c.peMin) + 1));
        p.retentionHours =
            c.retentionHoursMax > c.retentionHoursMin
                ? rng.uniform(c.retentionHoursMin, c.retentionHoursMax)
                : c.retentionHoursMin;
        p.tempC = c.tempC;
        p.workload = c.workload;
        p.mode = c.mode;
        p.queues = c.queues;
        p.queueDepth = c.queueDepth;
        p.ratePerQueueUs = c.ratePerQueueUs;
        // Copied, not drawn: the mapping stack must not consume RNG
        // state, or configuring it would reshuffle every profile.
        p.ftl = c.ftl;
        p.gcPolicy = c.gcPolicy;
        p.seed = rng.next();
        profiles.push_back(std::move(p));
    }
    return profiles;
}

std::uint64_t
traceSeed(const DeviceProfile &p)
{
    return util::hashCombine(p.seed, kTraceSalt);
}

FrontendConfig
frontendConfig(const DeviceProfile &p)
{
    FrontendConfig fcfg;
    fcfg.queues = p.queues;
    fcfg.queueDepth = p.queueDepth;
    fcfg.mode = p.mode;
    fcfg.ratePerQueueUs = p.ratePerQueueUs;
    fcfg.seed = util::hashCombine(p.seed, kFrontendSalt);
    return fcfg;
}

std::unique_ptr<ScrubDevice>
FleetEnv::makeScrubDevice(const DeviceProfile &p)
{
    return std::make_unique<SyntheticScrubDevice>(p);
}

SyntheticScrubDevice::SyntheticScrubDevice(const DeviceProfile &p)
    : seed_(util::hashCombine(p.seed, kScrubSalt))
{
    // Wear scaling mirrors the chip model's first-order behaviour:
    // RBER and sentinel drift both grow with P/E cycles and with
    // retention age (Arrhenius-accelerated by temperature).
    const double pe = static_cast<double>(p.peCycles);
    const double years = p.retentionHours / 8760.0;
    const double heat = 1.0 + (p.tempC - 25.0) / 50.0;
    baseRber_ = 1e-4 * (1.0 + pe / 2000.0) * (1.0 + years * heat);
    baseOffset_ = -static_cast<int>(pe / 1500.0 + 4.0 * years * heat);
    epoch_.peCycles = p.peCycles;
    epoch_.retentionHours = p.retentionHours;
    epoch_.retentionTempC = p.tempC;
}

ScrubProbe
SyntheticScrubDevice::probe(int plane, int block,
                            std::uint64_t probe_seq)
{
    const std::uint64_t cell = (static_cast<std::uint64_t>(
                                    static_cast<std::uint32_t>(plane))
                                << 32)
        | static_cast<std::uint32_t>(block);
    util::Rng rng(util::hashCombine(seed_,
                                    util::hashCombine(cell, probe_seq)));
    ScrubProbe p;
    p.rber = baseRber_ * (0.5 + rng.uniform());
    p.sentinelOffset =
        baseOffset_ + static_cast<int>(rng.uniformInt(3)) - 1;
    p.epoch = epoch_;
    return p;
}

DeviceResult
runDevice(const FleetConfig &cfg, const DeviceProfile &p, FleetEnv &env)
{
    const trace::WorkloadSpec spec = trace::msrWorkload(p.workload);
    const auto tr = trace::generateTrace(
        spec, static_cast<std::size_t>(cfg.requests), traceSeed(p));

    // The profile's mapping stack overrides the fleet-wide SsdConfig.
    SsdConfig dev_cfg = cfg.ssd;
    dev_cfg.ftl = p.ftl;
    dev_cfg.gcPolicy = p.gcPolicy;
    SsdSim sim(dev_cfg, cfg.timing, env.coldCost(p), p.seed);

    // The per-device model is owned here: each device learns only
    // from its own probes, so devices stay independent and the fleet
    // stays byte-identical at any thread count.
    std::unique_ptr<core::VoltagePredictor> model;
    if (cfg.model)
        model = std::make_unique<core::VoltagePredictor>(cfg.modelConfig);

    std::unique_ptr<ScrubDevice> scrub_device;
    std::unique_ptr<Scrubber> scrubber;
    if (cfg.scrub.enabled()) {
        scrub_device = env.makeScrubDevice(p);
        scrubber = std::make_unique<Scrubber>(cfg.scrub, *scrub_device,
                                              model.get());
        sim.attachScrubber(scrubber.get());
        sim.setWarmReadCost(env.warmCost(p));
    }

    std::ostringstream health_buf;
    std::unique_ptr<HealthMonitor> health;
    if (cfg.healthIntervalUs > 0.0) {
        HealthMonitorOptions hopt;
        hopt.intervalUs = cfg.healthIntervalUs;
        hopt.deviceId = p.device;
        health = std::make_unique<HealthMonitor>(health_buf, hopt);
        health->beginRun("fleet." + p.cohortName);
        sim.setHealthMonitor(health.get());
    }

    HostFrontend frontend(frontendConfig(p), sim);
    FrontendReport rep = frontend.run(tr);

    DeviceResult out;
    out.profile = p;
    out.requests = rep.requests;
    out.makespanUs = rep.makespanUs;
    out.iops = rep.iops;
    out.readP50Us = rep.readP50Us;
    out.readP99Us = rep.readP99Us;
    out.readP999Us = rep.readP999Us;
    out.metrics = std::move(rep.device.metrics);
    if (model)
        model->exportMetrics(out.metrics);
    out.footprintBytes = sim.footprintBytes()
        + out.metrics.footprintBytes()
        + (model ? model->footprintBytes() : 0);
    out.healthLines = health_buf.str();
    return out;
}

FleetResult
runFleet(const FleetConfig &cfg, FleetEnv &env, int threads)
{
    cfg.validate();
    util::fatalIf(threads < 1, "runFleet: bad thread count");

    const std::vector<DeviceProfile> profiles = drawProfiles(cfg);
    std::vector<int> order = cfg.order;
    if (order.empty()) {
        order.resize(static_cast<std::size_t>(cfg.devices));
        for (int d = 0; d < cfg.devices; ++d)
            order[static_cast<std::size_t>(d)] = d;
    }

    // Devices are independent; each iteration writes only its own
    // device-id slot, so results are identical at any thread count
    // and for any evaluation order.
    FleetResult out;
    out.devices.resize(static_cast<std::size_t>(cfg.devices));
    util::parallelFor(threads, cfg.devices, [&](int i) {
        const DeviceProfile &p =
            profiles[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
        out.devices[static_cast<std::size_t>(p.device)] =
            runDevice(cfg, p, env);
    });

    // Sequential rollup in device-id order. mergePrefixed is exact
    // (integer bins, ExactSum totals), so any merge order would
    // export the same bytes; the fixed order keeps the reduction
    // reproducible by construction rather than by argument.
    for (const DeviceResult &d : out.devices) {
        out.rollup.mergePrefixed(d.metrics, "fleet.");
        out.rollup.add("fleet.devices");
        out.rollup.add("fleet.requests", d.requests);
        out.rollup.observe("fleet.device.read_p99_us", d.readP99Us);
        out.maxFootprintBytes =
            std::max(out.maxFootprintBytes, d.footprintBytes);
        out.totalFootprintBytes += d.footprintBytes;
    }
    return out;
}

std::string
arrivalModeName(ArrivalMode mode)
{
    switch (mode) {
    case ArrivalMode::Closed: return "closed";
    case ArrivalMode::OpenFixed: return "fixed";
    case ArrivalMode::OpenPoisson: return "poisson";
    }
    return "unknown";
}

void
writeFleetJsonLines(const FleetResult &fleet, std::ostream &os)
{
    std::uint64_t total_requests = 0;
    for (const DeviceResult &d : fleet.devices) {
        const DeviceProfile &p = d.profile;
        os << "{\"fleet\": \"device\", \"device\": " << p.device
           << ", \"cohort\": \"" << util::jsonEscape(p.cohortName)
           << "\", \"pe_cycles\": " << p.peCycles
           << ", \"retention_hours\": " << util::jsonNumber(p.retentionHours)
           << ", \"temp_c\": " << util::jsonNumber(p.tempC)
           << ", \"workload\": \"" << util::jsonEscape(p.workload)
           << "\", \"mode\": \"" << arrivalModeName(p.mode)
           << "\", \"queues\": " << p.queues
           << ", \"queue_depth\": " << p.queueDepth
           << ", \"ftl\": \"" << ftlKindName(p.ftl)
           << "\", \"gc_policy\": \"" << gcPolicyName(p.gcPolicy)
           << "\", \"requests\": " << d.requests
           << ", \"iops\": " << util::jsonNumber(d.iops)
           << ", \"makespan_us\": " << util::jsonNumber(d.makespanUs)
           << ", \"read_p50_us\": " << util::jsonNumber(d.readP50Us)
           << ", \"read_p99_us\": " << util::jsonNumber(d.readP99Us)
           << ", \"read_p999_us\": " << util::jsonNumber(d.readP999Us)
           << ", \"waf_num\": " << d.metrics.counter("ftl.waf.num")
           << ", \"waf_den\": " << d.metrics.counter("ftl.waf.den")
           << ", \"waf\": "
           << util::jsonNumber(
                  d.metrics.counter("ftl.waf.den") > 0
                      ? static_cast<double>(
                            d.metrics.counter("ftl.waf.num"))
                          / static_cast<double>(
                                d.metrics.counter("ftl.waf.den"))
                      : 0.0)
           << ", \"footprint_bytes\": " << d.footprintBytes
           << ", \"read_latency\": ";
        if (const util::LatencyHistogram *h =
                d.metrics.findHistogram("frontend.read_latency_us"))
            h->writeBinsJson(os);
        else
            os << "null";
        os << "}\n";
        total_requests += d.requests;
    }

    os << "{\"fleet\": \"rollup\", \"devices\": " << fleet.devices.size()
       << ", \"requests\": " << total_requests
       << ", \"max_footprint_bytes\": " << fleet.maxFootprintBytes
       << ", \"total_footprint_bytes\": " << fleet.totalFootprintBytes
       << ", \"read_latency\": ";
    if (const util::LatencyHistogram *h =
            fleet.rollup.findHistogram("fleet.frontend.read_latency_us"))
        h->writeBinsJson(os);
    else
        os << "null";
    os << ", \"metrics\": ";
    fleet.rollup.writeJson(os);
    os << "}\n";
}

void
writeHealthLines(const FleetResult &fleet, std::ostream &os)
{
    // Per-device buffers flushed in device-id order: every line is a
    // complete JSON record from exactly one device, however many
    // threads produced them.
    for (const DeviceResult &d : fleet.devices)
        os << d.healthLines;
}

} // namespace flash::ssd::fleet
