#include "workloads.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <sstream>

#include "core/characterization.hh"
#include "core/evaluator.hh"
#include "core/read_policy.hh"
#include "core/sentinel_layout.hh"
#include "core/voltage_cache.hh"
#include "ecc/ecc_model.hh"
#include "nandsim/chip.hh"
#include "nandsim/geometry.hh"
#include "nandsim/voltage_model.hh"
#include "ssd/config.hh"
#include "ssd/fleet/fleet.hh"
#include "ssd/fleet/report.hh"
#include "ssd/host_frontend.hh"
#include "ssd/read_cost.hh"
#include "ssd/ssd_sim.hh"
#include "trace/msr_workloads.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

using namespace flash;

namespace
{

/** Chip batch of every figure harness. */
constexpr std::uint64_t kChipSeed = 0x5eed2020;

/** Wordline stride of the factory characterization sweep. */
constexpr int kCharStride = 8;

/** The evaluation block; block 0 is the characterization block. */
constexpr int kEvalBlock = 1;

/**
 * Data programmed into the evaluation blocks. It is fixed like the chip
 * batch, so a workload seed varies what a run draws (read noise,
 * traces, fleet profiles), not which cells it reads.
 */
constexpr std::uint64_t kDataSeed = kChipSeed ^ 0xda7a;

/**
 * Read stream of the read-cost measurements behind ssd_replay and
 * fleet. The measured cost distributions belong to the fixed device;
 * those workloads' seeds vary the traces, the simulators' sampling
 * and the fleet.
 */
constexpr std::uint64_t kCostStream = kChipSeed ^ 0xc057;

/** Salts that keep the streams derived from the workload seed apart. */
constexpr std::uint64_t kReadSalt = 0x5ead00;
constexpr std::uint64_t kAccuracySalt = 0xacc000;
constexpr std::uint64_t kTraceSalt = 0x7ace00;
constexpr std::uint64_t kSimSalt = 0x51d00;
constexpr std::uint64_t kFleetSalt = 0xf1ee7;

/** The ECC every figure harness uses (2 KiB frames, 145-bit BCH). */
const ecc::EccConfig kEcc{16384, 145};

/** Threads of the set-up's chip sweeps; their results are thread-exact. */
int
setupThreads()
{
    return std::min(4, util::hardwareThreads());
}

std::uint64_t
derive(std::uint64_t seed, std::uint64_t salt)
{
    return util::hashCombine(seed, salt);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

std::unique_ptr<nand::Chip>
makeTlcChip(int blocks)
{
    nand::ChipGeometry geom = nand::paperTlcGeometry();
    geom.blocks = blocks;
    return std::make_unique<nand::Chip>(geom, nand::tlcVoltageParams(),
                                        kChipSeed);
}

/** Age a block from a fresh program to (@p pe, @p hours at @p temp_c). */
void
ageBlock(nand::Chip &chip, int block, std::uint32_t pe, double hours,
         double temp_c = 25.0)
{
    chip.setPeCycles(block, pe);
    chip.refresh(block);
    chip.age(block, hours, temp_c);
}

/** The read-session counters core::recordSession keeps, summed. */
struct CoreCounts
{
    double sessions = 0, attempts = 0, retries = 0, assistReads = 0,
           failures = 0, senseOps = 0, case1 = 0, case2 = 0,
           converged = 0;

    void
    add(const util::MetricsRegistry &m)
    {
        const auto c = [&](const char *name) {
            return static_cast<double>(m.counter(name));
        };
        sessions += c("read.sessions");
        attempts += c("read.attempts");
        retries += c("read.retries");
        assistReads += c("read.assist_reads");
        failures += c("read.failures");
        senseOps += c("read.sense_ops");
        case1 += c("read.calib.case1_tune_further");
        case2 += c("read.calib.case2_tune_back");
        converged += c("read.calib.converged");
    }

    void
    report(Values &v) const
    {
        v["core.sessions"] = sessions;
        v["core.attempts"] = attempts;
        v["core.retries"] = retries;
        v["core.assist_reads"] = assistReads;
        v["core.failures"] = failures;
        v["core.calib.case1"] = case1;
        v["core.calib.case2"] = case2;
        v["core.calib.converged"] = converged;
        v["core.decode_success_ratio"] = ratio(sessions - failures, attempts);
    }
};

/** FTL counters of one or more SSD runs, from their metrics. */
void
reportFtl(const util::MetricsRegistry &m, const std::string &prefix,
          Values &v)
{
    const auto c = [&](const char *name) {
        return static_cast<double>(m.counter(prefix + name));
    };
    v["ssd.ftl.host_writes"] = c("ftl.host_writes");
    v["ssd.ftl.gc_runs"] = c("ftl.gc_runs");
    v["ssd.ftl.migrated_pages"] = c("ftl.migrated_pages");
    v["ssd.ftl.erases"] = c("ftl.erases");
    v["ssd.ftl.waf"] = c("ftl.waf.den") > 0
        ? c("ftl.waf.num") / c("ftl.waf.den")
        : 1.0;
}

/** Mean of a histogram, 0 when it does not exist. */
double
histMean(const util::MetricsRegistry &m, const std::string &name)
{
    const util::LatencyHistogram *h = m.findHistogram(name);
    return h ? h->mean() : 0.0;
}

/** Percentile of a histogram, 0 when it does not exist. */
double
histPercentile(const util::MetricsRegistry &m, const std::string &name,
               double q)
{
    const util::LatencyHistogram *h = m.findHistogram(name);
    return h ? h->percentile(q) : 0.0;
}

/** Simulated per-stage means of the SSD read path (prefix: "" or "fleet."). */
void
reportStages(const util::MetricsRegistry &m, const std::string &prefix,
             Values &v)
{
    v["ssd.sim.queue_us"] = histMean(m, prefix + "ssd.read.queue_us");
    v["ssd.sim.sense_us"] = histMean(m, prefix + "ssd.read.sense_us");
    v["ssd.sim.xfer_us"] = histMean(m, prefix + "ssd.read.xfer_us");
    v["ssd.sim.decode_us"] = histMean(m, prefix + "ssd.read.decode_us");
    v["ssd.sim.gc_stall_us"] =
        histMean(m, prefix + "ssd.write.gc_stall_us");
}

// ---------------------------------------------------------------------
// chip_read

/**
 * Batch chip reads: the vendor ladder, the sentinel policy and the
 * sentinel policy with a voltage cache over aged TLC blocks at two
 * (P/E, retention) points, plus inference/calibration accuracy.
 */
class ChipRead : public Workload
{
  public:
    explicit ChipRead(const RunOptions &options)
        : opt_(options), stride_(options.quick ? 32 : 8)
    {
    }

    void
    setup(Tracer &tracer) override
    {
        {
            auto s = tracer.span("nandsim.build", "chip_read");
            chip_ = makeTlcChip(kEvalBlock + kBlocks);
        }
        {
            auto s = tracer.span("core.characterize", "chip_read/tlc");
            core::CharOptions co;
            co.wordlineStride = kCharStride;
            co.threads = setupThreads();
            tables_ = core::FactoryCharacterizer(co).run(*chip_);
        }
        overlay_ = core::makeOverlay(chip_->geometry(),
                                     core::SentinelConfig{});
        {
            auto s = tracer.span("nandsim.build", "chip_read/age");
            for (int b = 0; b < kBlocks; ++b) {
                const AgePoint &pt = kPoints[pointOf(b)];
                chip_->programBlock(kEvalBlock + b, kDataSeed + b, overlay_);
                ageBlock(*chip_, kEvalBlock + b, pt.pe, pt.hours);
            }
        }
        vendor_ = std::make_unique<core::VendorRetryPolicy>(chip_->model());
        sentinel_ = std::make_unique<core::SentinelPolicy>(
            tables_, chip_->model().defaultVoltages());
    }

    PassResult
    pass(Tracer &tracer) override
    {
        PassResult r;
        last_.clear();
        std::ostringstream sim;
        for (int b = 0; b < kBlocks; ++b) {
            const int block = kEvalBlock + b;
            const std::uint64_t stream = derive(opt_.seed, kReadSalt + b);
            const std::string where = std::string(kPoints[pointOf(b)].name)
                + "/b" + std::to_string(b);
            BlockResult br;
            {
                auto s = tracer.span("core.evaluate.vendor",
                                     "chip_read/vendor/" + where);
                br.vendor = core::evaluateBlock(*chip_, block, *vendor_,
                                                ecc_, overlay_, latency_, -1,
                                                stride_, 1, stream);
            }
            {
                auto s = tracer.span("core.evaluate.sentinel",
                                     "chip_read/sentinel/" + where);
                br.sentinel = core::evaluateBlock(
                    *chip_, block, *sentinel_, ecc_, overlay_, latency_, -1,
                    stride_, 1, stream);
            }
            {
                // A cached session depends on the sessions before it,
                // so this arm is serial by construction.
                auto s = tracer.span("core.evaluate.sentinel_cache",
                                     "chip_read/sentinel_cache/" + where);
                core::VoltageCache cache;
                core::SentinelPolicy cached(tables_,
                                            chip_->model().defaultVoltages());
                cached.attachCache(&cache);
                br.cached = core::evaluateBlock(*chip_, block, cached, ecc_,
                                                overlay_, latency_, -1,
                                                stride_, 1, stream);
                br.cache = cache.stats();
            }
            {
                auto s = tracer.span("core.accuracy",
                                     "chip_read/accuracy/" + where);
                core::AccuracyOptions ao;
                ao.readStream = derive(opt_.seed, kAccuracySalt + b);
                const auto acc = core::evaluateBlockAccuracy(
                    *chip_, block, tables_, *overlay_, ao, 4 * stride_, 1);
                for (const core::WordlineAccuracy &wl : acc) {
                    for (std::size_t k = 1; k < wl.boundaries.size(); ++k) {
                        ++br.boundaries;
                        br.inferOk += wl.boundaries[k].inferOk;
                        br.calibOk += wl.boundaries[k].calibOk;
                    }
                }
            }
            r.ops += br.vendor.sessions + br.sentinel.sessions
                + br.cached.sessions;
            sim << where << " vendor " << br.vendor.metrics.toJson()
                << " sentinel " << br.sentinel.metrics.toJson()
                << " cached " << br.cached.metrics.toJson() << " cache "
                << br.cache.hits << '/' << br.cache.misses << '/'
                << br.cache.stales << " accuracy " << br.inferOk << '/'
                << br.calibOk << '/' << br.boundaries << '\n';
            last_.push_back(std::move(br));
        }
        r.simulated = sim.str();

        const Totals t = totals();
        const double vendor_retries =
            opt_.inject == "check" ? 0.0 : t.vendor.retries;
        if (!(t.sentinel.retries < vendor_retries)) {
            r.failures.push_back("chip_read: sentinel retries "
                                 + std::to_string(t.sentinel.retries)
                                 + " not below vendor retries "
                                 + std::to_string(vendor_retries));
        }
        if (!(t.calibOk >= t.inferOk)) {
            r.failures.push_back("chip_read: calibration success below "
                                 "inference success");
        }
        return r;
    }

    void
    report(Values &v) const override
    {
        const Totals t = totals();
        v["retries_per_read"] = ratio(t.sentinel.retries, t.sentinel.sessions);
        v["senses_per_read"] = ratio(t.sentinel.senseOps, t.sentinel.sessions);
        v["read_mean_us"] = histMean(t.sentinelMetrics, "read.latency_us");
        v["read_p99_us"] =
            histPercentile(t.sentinelMetrics, "read.latency_us", 0.99);
        v["retry_reduction_pct"] =
            100.0 * (1.0 - ratio(t.sentinel.retries, t.vendor.retries));
        v["infer_success_pct"] = 100.0 * ratio(t.inferOk, t.boundaries);
        v["calib_success_pct"] = 100.0 * ratio(t.calibOk, t.boundaries);
        v["read_failed_frac"] = ratio(t.all.failures, t.all.sessions);
        t.all.report(v);
        v["nandsim.sense_ops"] = t.all.senseOps;
        v["core.cache.hit_ratio"] = ratio(
            t.cacheHits, t.cacheHits + t.cacheMisses + t.cacheStales);
    }

  private:
    struct AgePoint
    {
        std::uint32_t pe;
        double hours;
        const char *name;
    };

    /** One year at P/E 3000, and Fig 13's P/E 5000 plus one year. */
    static constexpr std::array<AgePoint, 2> kPoints{{
        {3000, 8760.0, "pe3000_1y"},
        {5000, 8760.0, "pe5000_1y"},
    }};

    /**
     * Evaluation blocks, four per age point, each with its own data.
     * Many short per-block steps let a pass's fastest-step sum ride out
     * the host's slow stretches better than a few long ones.
     */
    static constexpr int kBlocksPerPoint = 4;
    static constexpr int kBlocks =
        kBlocksPerPoint * static_cast<int>(kPoints.size());

    static std::size_t
    pointOf(int block)
    {
        return static_cast<std::size_t>(block / kBlocksPerPoint);
    }

    struct BlockResult
    {
        core::PolicyBlockStats vendor, sentinel, cached;
        core::VoltageCache::Stats cache;
        double inferOk = 0, calibOk = 0, boundaries = 0;
    };

    struct Totals
    {
        CoreCounts vendor, sentinel, all;
        util::MetricsRegistry sentinelMetrics;
        double inferOk = 0, calibOk = 0, boundaries = 0;
        double cacheHits = 0, cacheMisses = 0, cacheStales = 0;
    };

    Totals
    totals() const
    {
        Totals t;
        for (const BlockResult &br : last_) {
            t.vendor.add(br.vendor.metrics);
            t.sentinel.add(br.sentinel.metrics);
            t.sentinelMetrics.merge(br.sentinel.metrics);
            t.all.add(br.vendor.metrics);
            t.all.add(br.sentinel.metrics);
            t.all.add(br.cached.metrics);
            t.inferOk += br.inferOk;
            t.calibOk += br.calibOk;
            t.boundaries += br.boundaries;
            t.cacheHits += static_cast<double>(br.cache.hits);
            t.cacheMisses += static_cast<double>(br.cache.misses);
            t.cacheStales += static_cast<double>(br.cache.stales);
        }
        return t;
    }

    RunOptions opt_;
    int stride_;
    std::unique_ptr<nand::Chip> chip_;
    core::Characterization tables_;
    std::optional<nand::SentinelOverlay> overlay_;
    ecc::EccModel ecc_{kEcc};
    core::LatencyParams latency_;
    std::unique_ptr<core::VendorRetryPolicy> vendor_;
    std::unique_ptr<core::SentinelPolicy> sentinel_;
    std::vector<BlockResult> last_;
};

// ---------------------------------------------------------------------
// ssd_replay

/**
 * Fig 14: eight MSR-like traces replayed open loop at their arrival
 * times through a fresh full-size SsdSim, once with the vendor cost
 * source and once with the sentinel cost source.
 */
class SsdReplay : public Workload
{
  public:
    explicit SsdReplay(const RunOptions &options)
        : opt_(options), requests_(options.quick ? 2000 : 60000)
    {
        timing_.readBaseUs = 5.0;
        timing_.decodeUs = 2.0;
        if (options.quick)
            cfg_.blocksPerPlane = 16;
    }

    void
    setup(Tracer &tracer) override
    {
        {
            auto s = tracer.span("nandsim.build", "ssd_replay");
            chip_ = makeTlcChip(2);
        }
        {
            auto s = tracer.span("core.characterize", "ssd_replay/tlc");
            core::CharOptions co;
            co.wordlineStride = kCharStride;
            co.threads = setupThreads();
            tables_ = core::FactoryCharacterizer(co).run(*chip_);
        }
        overlay_ = core::makeOverlay(chip_->geometry(),
                                     core::SentinelConfig{});
        {
            auto s = tracer.span("nandsim.build", "ssd_replay/age");
            chip_->programBlock(kEvalBlock, kDataSeed, overlay_);
            ageBlock(*chip_, kEvalBlock, 5000, 8760.0);
        }
        vendor_ = std::make_unique<core::VendorRetryPolicy>(chip_->model());
        sentinel_ = std::make_unique<core::SentinelPolicy>(
            tables_, chip_->model().defaultVoltages());
        const int msb = chip_->grayCode().msbPage();
        {
            auto s = tracer.span("ssd.read_cost.measure",
                                 "ssd_replay/vendor");
            vcost_.emplace(ssd::measureReadCost(
                *chip_, kEvalBlock, *vendor_, ecc_, overlay_, msb,
                kCostStride, setupThreads(), kCostStream));
        }
        {
            auto s = tracer.span("ssd.read_cost.measure",
                                 "ssd_replay/sentinel");
            scost_.emplace(ssd::measureReadCost(
                *chip_, kEvalBlock, *sentinel_, ecc_, overlay_, msb,
                kCostStride, setupThreads(), kCostStream));
        }
        traces_.clear();
        std::vector<trace::WorkloadSpec> specs = trace::msrWorkloads();
        if (opt_.quick)
            specs.resize(2);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            trace::WorkloadSpec spec = specs[i];
            spec.meanInterarrivalUs *= 0.5; // one busy volume per SSD
            auto s = tracer.span("trace.generate", "ssd_replay/" + spec.name);
            traces_.push_back(
                {spec.name,
                 trace::generateTrace(spec,
                                      static_cast<std::size_t>(requests_),
                                      derive(opt_.seed, kTraceSalt + i))});
        }
    }

    std::vector<std::string>
    account() override
    {
        // Replay each cost measurement's sessions with evaluateBlock
        // (same block, page, stride and read stream) to learn which of
        // them exhausted the retry budget.
        std::vector<std::string> failures;
        const int msb = chip_->grayCode().msbPage();
        costCounts_ = CoreCounts();
        const std::pair<const core::ReadPolicy *, ssd::EmpiricalReadCost *>
            arms[] = {{vendor_.get(), &*vcost_}, {sentinel_.get(), &*scost_}};
        for (std::size_t a = 0; a < 2; ++a) {
            const core::PolicyBlockStats st = core::evaluateBlock(
                *chip_, kEvalBlock, *arms[a].first, ecc_, overlay_, latency_,
                msb, kCostStride, setupThreads(), kCostStream);
            failShare_[a] = ratio(st.failures, st.sessions);
            costCounts_.add(st.metrics);
            if (std::abs(st.retries.mean() - arms[a].second->meanRetries())
                > 1e-9) {
                failures.push_back("ssd_replay: accounting sessions differ "
                                   "from the measured cost distribution");
            }
        }
        return failures;
    }

    PassResult
    pass(Tracer &tracer) override
    {
        PassResult r;
        last_.clear();
        std::ostringstream sim;
        for (std::size_t i = 0; i < traces_.size(); ++i) {
            const auto &[name, tr] = traces_[i];
            std::uint64_t expected_reads = 0;
            for (const trace::TraceRecord &rec : tr)
                expected_reads += rec.isRead;
            if (opt_.inject == "check")
                ++expected_reads;

            Replay rp;
            rp.name = name;
            ssd::ReadCostSource *costs[2] = {&*vcost_, &*scost_};
            for (int a = 0; a < 2; ++a) {
                const std::string tag =
                    std::string("ssd_replay/") + kArms[a] + "/" + name;
                std::optional<ssd::SsdSim> sim_dev;
                {
                    auto s = tracer.span("ssd.ftl.precondition", tag);
                    sim_dev.emplace(cfg_, timing_, *costs[a],
                                    derive(opt_.seed, kSimSalt + i));
                }
                double last_done = 0.0;
                ssd::SimReport &rep = rp.reports[a];
                {
                    // SsdSim::run() is exactly this submit() loop; driving
                    // it here also yields the makespan.
                    auto s = tracer.span("ssd.sim.run", tag);
                    for (const trace::TraceRecord &rec : tr) {
                        last_done = std::max(
                            last_done, sim_dev->submit(rec, rec.timestampUs));
                    }
                    rep = sim_dev->finishRun();
                }
                {
                    auto s = tracer.span("util.metrics.export", tag);
                    std::ostringstream os;
                    rep.writeJson(os);
                    sim << name << ' ' << kArms[a] << ' ' << os.str() << '\n';
                }
                r.ops += static_cast<double>(rep.pageReads + rep.pageWrites);

                // A full FTL walk costs more than the replay. Later
                // passes must reproduce the first pass's bytes, so the
                // first pass's walk covers them.
                if (!invariantsChecked_) {
                    const auto t0 = std::chrono::steady_clock::now();
                    try {
                        sim_dev->ftl().checkInvariants();
                    } catch (const std::exception &e) {
                        r.failures.push_back("ssd_replay: " + tag
                                             + " FTL: " + e.what());
                    }
                    r.checkSeconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0).count();
                }

                if (rep.readLatencyUs.count() != expected_reads) {
                    r.failures.push_back(
                        "ssd_replay: " + tag + " served "
                        + std::to_string(rep.readLatencyUs.count())
                        + " reads, trace has "
                        + std::to_string(expected_reads));
                }
                const double first = tr.front().timestampUs;
                rp.loadRatio[a] =
                    ratio(last_done - first, tr.back().timestampUs - first);
            }
            if (!(rp.reports[1].readLatencyUs.mean()
                  < rp.reports[0].readLatencyUs.mean())) {
                r.failures.push_back("ssd_replay: " + name
                                     + " sentinel mean latency not below "
                                       "vendor");
            }
            last_.push_back(std::move(rp));
        }
        r.simulated = sim.str();
        invariantsChecked_ = true;
        return r;
    }

    void
    report(Values &v) const override
    {
        util::MetricsRegistry sentinel, all;
        double mean_sum = 0, p99_sum = 0, reduction_sum = 0, load = 0;
        double page_reads = 0, page_writes = 0;
        double weighted_fail = 0;
        for (const Replay &rp : last_) {
            const ssd::SimReport &vr = rp.reports[0];
            const ssd::SimReport &sr = rp.reports[1];
            sentinel.merge(sr.metrics);
            for (int a = 0; a < 2; ++a) {
                const ssd::SimReport &rep = rp.reports[a];
                all.merge(rep.metrics);
                page_reads += static_cast<double>(rep.pageReads);
                page_writes += static_cast<double>(rep.pageWrites);
                weighted_fail +=
                    failShare_[a] * static_cast<double>(rep.pageReads);
            }
            mean_sum += sr.readLatencyUs.mean();
            p99_sum += histPercentile(sr.metrics,
                                      "ssd.read.request_latency_us", 0.99);
            reduction_sum +=
                1.0 - ratio(sr.readLatencyUs.mean(), vr.readLatencyUs.mean());
            load = std::max(load, rp.loadRatio[1]);
        }
        const double n = static_cast<double>(last_.size());
        const double ops = static_cast<double>(
            sentinel.counter("ssd.read.page_ops"));
        v["retries_per_read"] =
            ratio(static_cast<double>(sentinel.counter("ssd.read.attempts")),
                  ops)
            - 1.0;
        v["senses_per_read"] = ratio(
            static_cast<double>(sentinel.counter("ssd.read.sense_ops")), ops);
        v["read_mean_us"] = mean_sum / n;
        v["read_p99_us"] = p99_sum / n;
        v["read_latency_reduction_pct"] = 100.0 * reduction_sum / n;
        v["read_failed_frac"] = ratio(weighted_fail, page_reads);
        costCounts_.report(v);
        v["trace.requests"] = n * requests_;
        v["ssd.ftl.preconditions"] = 2 * n;
        reportFtl(all, "", v);
        v["ssd.sim.page_reads"] = page_reads;
        v["ssd.sim.page_writes"] = page_writes;
        reportStages(sentinel, "", v);
        v["ssd.sim.load_ratio"] = load;
    }

  private:
    static constexpr const char *kArms[2] = {"vendor", "sentinel"};

    /** Wordline stride of the read-cost measurements (Fig 14's). */
    static constexpr int kCostStride = 2;

    struct Replay
    {
        std::string name;
        ssd::SimReport reports[2]; ///< vendor, sentinel
        double loadRatio[2] = {0, 0};
    };

    RunOptions opt_;
    int requests_;
    ssd::SsdConfig cfg_;
    ssd::SsdTiming timing_;
    std::unique_ptr<nand::Chip> chip_;
    core::Characterization tables_;
    std::optional<nand::SentinelOverlay> overlay_;
    ecc::EccModel ecc_{kEcc};
    core::LatencyParams latency_;
    std::unique_ptr<core::VendorRetryPolicy> vendor_;
    std::unique_ptr<core::SentinelPolicy> sentinel_;
    std::optional<ssd::EmpiricalReadCost> vcost_, scost_;
    std::vector<std::pair<std::string, std::vector<trace::TraceRecord>>>
        traces_;
    double failShare_[2] = {0, 0};
    CoreCounts costCounts_;
    bool invariantsChecked_ = false;
    std::vector<Replay> last_;
};

// ---------------------------------------------------------------------
// fleet

/** Cohort-indexed vendor-ladder costs measured on the re-aged chip. */
class CohortCostEnv : public ssd::fleet::FleetEnv
{
  public:
    explicit CohortCostEnv(std::vector<ssd::EmpiricalReadCost> costs)
        : costs_(std::move(costs))
    {
    }

    ssd::ReadCostSource &
    coldCost(const ssd::fleet::DeviceProfile &p) override
    {
        return costs_.at(static_cast<std::size_t>(p.cohort));
    }

  private:
    std::vector<ssd::EmpiricalReadCost> costs_;
};

/**
 * runFleet over thousands of small devices from the default cohorts,
 * each a closed-loop HostFrontend over its own SsdSim, ending with the
 * fleet-report round trip. The fleet runs as shards of 256 devices
 * whose rollups merge exactly: many short steps let a pass's
 * fastest-step sum ride out the host's slow stretches, and each shard's
 * results are freed before the next. The traced pass rebuilds every
 * device serially from public calls and must reproduce runFleet's bytes.
 */
class Fleet : public Workload
{
  public:
    explicit Fleet(const RunOptions &options)
        : opt_(options), shards_(options.quick ? 1 : 8)
    {
        cfg_.devices = options.quick ? 48 : 256;
        cfg_.requests = options.quick ? 64 : 256;
        cfg_.timing.readBaseUs = 5.0;
        cfg_.timing.decodeUs = 2.0;
        cfg_.healthIntervalUs = 0.0;
        cfg_.cohorts = ssd::fleet::defaultCohorts();
    }

    void
    setup(Tracer &tracer) override
    {
        {
            auto s = tracer.span("nandsim.build", "fleet");
            chip_ = makeTlcChip(2);
            overlay_ = core::makeOverlay(chip_->geometry(),
                                         core::SentinelConfig{});
            chip_->programBlock(kEvalBlock, kDataSeed, overlay_);
        }
        vendor_ = std::make_unique<core::VendorRetryPolicy>(chip_->model());
        std::vector<ssd::EmpiricalReadCost> costs;
        for (std::size_t c = 0; c < cfg_.cohorts.size(); ++c) {
            const ssd::fleet::CohortSpec &spec = cfg_.cohorts[c];
            {
                auto s = tracer.span("nandsim.build", "fleet/" + spec.name);
                ageCohort(spec);
            }
            auto s =
                tracer.span("ssd.read_cost.measure", "fleet/" + spec.name);
            costs.push_back(ssd::measureReadCost(
                *chip_, kEvalBlock, *vendor_, ecc_, overlay_,
                chip_->grayCode().msbPage(), kCostStride, setupThreads(),
                kCostStream + c));
        }
        env_ = std::make_unique<CohortCostEnv>(std::move(costs));
    }

    std::vector<std::string>
    account() override
    {
        // The sessions behind each cohort's cost distribution, replayed
        // with evaluateBlock to count budget-exhausted reads.
        costCounts_ = CoreCounts();
        failShare_.clear();
        for (std::size_t c = 0; c < cfg_.cohorts.size(); ++c) {
            ageCohort(cfg_.cohorts[c]);
            const core::PolicyBlockStats st = core::evaluateBlock(
                *chip_, kEvalBlock, *vendor_, ecc_, overlay_, latency_,
                chip_->grayCode().msbPage(), kCostStride, setupThreads(),
                kCostStream + c);
            failShare_.push_back(ratio(st.failures, st.sessions));
            costCounts_.add(st.metrics);
        }
        return {};
    }

    PassResult
    pass(Tracer &tracer) override
    {
        PassResult r;
        rollup_ = util::MetricsRegistry();
        cohorts_.assign(cfg_.cohorts.size(), CohortSums());
        iopsSum_ = 0;
        footprintMax_ = 0;
        references_.resize(static_cast<std::size_t>(shards_));
        for (int k = 0; k < shards_; ++k) {
            ssd::fleet::FleetConfig cfg = cfg_;
            cfg.seed = derive(opt_.seed, kFleetSalt + k);
            const std::string tag = "fleet/shard" + std::to_string(k);
            ssd::fleet::FleetResult fleet;
            if (tracer.full()) {
                fleet = rebuild(tracer, cfg, tag);
            } else {
                auto s = tracer.span("ssd.fleet.run", tag);
                fleet = ssd::fleet::runFleet(cfg, *env_, 1);
            }

            std::string lines;
            std::string mismatch;
            std::size_t parsed_devices = 0;
            {
                auto s = tracer.span("ssd.fleet.report", tag);
                std::ostringstream os;
                ssd::fleet::writeFleetJsonLines(fleet, os);
                lines = os.str();
                std::istringstream is(
                    opt_.inject == "rollup" ? corrupt(lines) : lines);
                const ssd::fleet::FleetReportData data =
                    ssd::fleet::parseFleetLines(is);
                const ssd::fleet::TailAttribution tail =
                    ssd::fleet::attributeTail(data);
                mismatch = ssd::fleet::checkReconciliation(data, tail);
                if (data.malformedLines > 0)
                    mismatch += " (malformed lines in the fleet report)";
                parsed_devices = data.devices.size();
            }
            {
                auto s = tracer.span("util.metrics.merge", tag);
                rollup_.merge(fleet.rollup);
            }

            if (!mismatch.empty())
                r.failures.push_back(tag + ": reconciliation: " + mismatch);
            const std::size_t expected_devices =
                static_cast<std::size_t>(cfg_.devices)
                + (opt_.inject == "check" ? 1 : 0);
            if (parsed_devices != expected_devices) {
                r.failures.push_back(tag + ": report holds "
                                     + std::to_string(parsed_devices)
                                     + " devices, expected "
                                     + std::to_string(expected_devices));
            }
            std::string &reference =
                references_[static_cast<std::size_t>(k)];
            if (!tracer.full()) {
                reference = lines;
            } else if (reference.empty()) {
                r.failures.push_back(
                    tag + ": no runFleet pass to compare the rebuild with");
            } else if (lines != reference) {
                r.failures.push_back(tag + ": serial rebuild differs from "
                                           "runFleet's report bytes");
            }

            // Per-device figures the rollup does not carry, by cohort.
            for (const ssd::fleet::DeviceResult &d : fleet.devices) {
                iopsSum_ += d.iops;
                const util::MetricsRegistry &m = d.metrics;
                const util::LatencyHistogram *lat =
                    m.findHistogram("ssd.read.request_latency_us");
                CohortSums &cs =
                    cohorts_[static_cast<std::size_t>(d.profile.cohort)];
                cs.devices += 1;
                cs.reads +=
                    static_cast<double>(m.counter("ssd.read.page_ops"));
                cs.attempts +=
                    static_cast<double>(m.counter("ssd.read.attempts"));
                cs.senses +=
                    static_cast<double>(m.counter("ssd.read.sense_ops"));
                cs.latencySum += lat ? lat->sum() : 0.0;
                cs.requests += lat ? static_cast<double>(lat->count()) : 0.0;
            }
            footprintMax_ = std::max(
                footprintMax_, static_cast<double>(fleet.maxFootprintBytes));
            r.simulated += lines;
        }
        {
            auto s = tracer.span("util.metrics.export", "fleet");
            r.simulated += rollup_.toJson();
        }
        r.ops = static_cast<double>(
            rollup_.counter("fleet.ssd.read.page_ops")
            + rollup_.counter("fleet.ssd.write.page_ops"));
        return r;
    }

    void
    report(Values &v) const override
    {
        const auto c = [&](const char *name) {
            return static_cast<double>(rollup_.counter(name));
        };
        // Post-stratified: per-cohort means combined with the cohorts'
        // design weights, so the cohort mix a seed happens to draw (the
        // worn share swings by several percent over 2048 devices) does
        // not move the per-read figures.
        double reads = 0, attempts = 0, senses = 0, failed = 0;
        double latency_sum = 0, requests = 0;
        for (std::size_t k = 0; k < cohorts_.size(); ++k) {
            const CohortSums &cs = cohorts_[k];
            const double w = ratio(cfg_.cohorts[k].weight, cs.devices);
            reads += w * cs.reads;
            attempts += w * cs.attempts;
            senses += w * cs.senses;
            failed += w * cs.reads * failShare_[k];
            latency_sum += w * cs.latencySum;
            requests += w * cs.requests;
        }
        v["retries_per_read"] = ratio(attempts, reads) - 1.0;
        v["senses_per_read"] = ratio(senses, reads);
        v["read_mean_us"] = ratio(latency_sum, requests);
        v["read_failed_frac"] = ratio(failed, reads);
        v["read_p99_us"] = histPercentile(
            rollup_, "fleet.ssd.read.request_latency_us", 0.99);
        v["iops"] = iopsSum_ / c("fleet.devices");
        costCounts_.report(v);
        v["trace.requests"] = c("fleet.requests");
        v["ssd.ftl.preconditions"] = c("fleet.devices");
        reportFtl(rollup_, "fleet.", v);
        v["ssd.sim.page_reads"] = c("fleet.ssd.read.page_ops");
        v["ssd.sim.page_writes"] = c("fleet.ssd.write.page_ops");
        reportStages(rollup_, "fleet.", v);
        v["ssd.frontend.queue_wait_us.p50"] =
            histPercentile(rollup_, "fleet.frontend.queue_wait_us", 0.5);
        v["ssd.frontend.queue_wait_us.p99"] =
            histPercentile(rollup_, "fleet.frontend.queue_wait_us", 0.99);
        v["ssd.fleet.footprint_max_bytes"] = footprintMax_;
    }

  private:
    /** Fleet's cost-measurement stride (bench_fleet's). */
    static constexpr int kCostStride = 4;

    /** Re-age the evaluation block to a cohort's midpoint. */
    void
    ageCohort(const ssd::fleet::CohortSpec &c)
    {
        ageBlock(*chip_, kEvalBlock, (c.peMin + c.peMax) / 2,
                 0.5 * (c.retentionHoursMin + c.retentionHoursMax), c.tempC);
    }

    /**
     * runFleet's work, one public call at a time, serially in device-id
     * order, with a span around each call.
     */
    ssd::fleet::FleetResult
    rebuild(Tracer &tracer, const ssd::fleet::FleetConfig &cfg,
            const std::string &shard)
    {
        auto run = tracer.span("ssd.fleet.run", shard);
        ssd::fleet::FleetResult out;
        for (const ssd::fleet::DeviceProfile &p :
             ssd::fleet::drawProfiles(cfg)) {
            const std::string tag = shard + "/" + p.cohortName + "/"
                + std::to_string(p.device);
            std::vector<trace::TraceRecord> tr;
            {
                auto s = tracer.span("trace.generate", tag);
                tr = trace::generateTrace(
                    trace::msrWorkload(p.workload),
                    static_cast<std::size_t>(cfg.requests),
                    ssd::fleet::traceSeed(p));
            }
            ssd::SsdConfig dev = cfg.ssd;
            dev.ftl = p.ftl;
            dev.gcPolicy = p.gcPolicy;
            std::optional<ssd::SsdSim> sim;
            {
                auto s = tracer.span("ssd.ftl.precondition", tag);
                sim.emplace(dev, cfg.timing, env_->coldCost(p), p.seed);
            }
            ssd::FrontendReport rep;
            {
                auto s = tracer.span("ssd.frontend.run", tag);
                rep = ssd::HostFrontend(ssd::fleet::frontendConfig(p), *sim)
                          .run(tr);
            }
            auto s = tracer.span("util.metrics.merge", tag);
            ssd::fleet::DeviceResult d;
            d.profile = p;
            d.requests = rep.requests;
            d.makespanUs = rep.makespanUs;
            d.iops = rep.iops;
            d.readP50Us = rep.readP50Us;
            d.readP99Us = rep.readP99Us;
            d.readP999Us = rep.readP999Us;
            d.metrics = std::move(rep.device.metrics);
            d.footprintBytes =
                sim->footprintBytes() + d.metrics.footprintBytes();
            out.rollup.mergePrefixed(d.metrics, "fleet.");
            out.rollup.add("fleet.devices");
            out.rollup.add("fleet.requests", d.requests);
            out.rollup.observe("fleet.device.read_p99_us", d.readP99Us);
            out.maxFootprintBytes =
                std::max(out.maxFootprintBytes, d.footprintBytes);
            out.totalFootprintBytes += d.footprintBytes;
            out.devices.push_back(std::move(d));
        }
        return out;
    }

    /** The fleet report with its rollup latency count off by one. */
    static std::string
    corrupt(std::string lines)
    {
        const std::string key = "\"read_latency\": {\"count\": ";
        const std::size_t rollup = lines.rfind("{\"fleet\": \"rollup\"");
        const std::size_t at = lines.find(key, rollup);
        if (rollup == std::string::npos || at == std::string::npos)
            return lines + "corrupt\n";
        const std::size_t num = at + key.size();
        const std::size_t end = lines.find_first_not_of("0123456789", num);
        const std::uint64_t count =
            std::stoull(lines.substr(num, end - num)) + 1;
        return lines.replace(num, end - num, std::to_string(count));
    }

    /** Read-path sums of one cohort's devices. */
    struct CohortSums
    {
        double devices = 0, reads = 0, attempts = 0, senses = 0;
        double latencySum = 0, requests = 0;
    };

    RunOptions opt_;
    int shards_;
    ssd::fleet::FleetConfig cfg_; ///< one shard; its seed is per shard
    std::unique_ptr<nand::Chip> chip_;
    std::optional<nand::SentinelOverlay> overlay_;
    ecc::EccModel ecc_{kEcc};
    core::LatencyParams latency_;
    std::unique_ptr<core::VendorRetryPolicy> vendor_;
    std::unique_ptr<CohortCostEnv> env_;
    std::vector<double> failShare_;
    CoreCounts costCounts_;

    util::MetricsRegistry rollup_; ///< every shard's rollup, merged
    std::vector<std::string> references_; ///< runFleet's bytes per shard
    std::vector<CohortSums> cohorts_;
    double iopsSum_ = 0, footprintMax_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const RunOptions &options)
{
    if (name == "chip_read")
        return std::make_unique<ChipRead>(options);
    if (name == "ssd_replay")
        return std::make_unique<SsdReplay>(options);
    if (name == "fleet")
        return std::make_unique<Fleet>(options);
    return nullptr;
}

} // namespace perfbench
