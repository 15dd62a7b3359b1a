/**
 * @file
 * Golden-stats regression suite: the per-policy metrics export of a
 * small fixed configuration is compared byte-for-byte against a
 * committed snapshot. Any change to the read path — retry tables,
 * sentinel inference, calibration logic, latency constants, histogram
 * binning — shows up as a diff here before it shows up as a silently
 * shifted benchmark figure.
 *
 * A second pair of snapshots pins the SSD simulator's metrics export:
 * two runs on one small device (GC, pipelined retry and an enabled
 * scrubber in the first, reads only in the second), so a metric that
 * appears early (a zero counter, an empty histogram) or goes missing
 * shows up as a diff.
 *
 * Regenerating after an intentional change:
 *   SENTINELFLASH_UPDATE_GOLDEN=1 ./test_golden_stats
 * then review the diff of tests/golden/*.json like any other code.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/policy_metrics.hh"
#include "ssd/scrubber/scrubber.hh"
#include "ssd/ssd_sim.hh"
#include "test_support.hh"
#include "util/rng.hh"

#ifndef SENTINELFLASH_GOLDEN_DIR
#error "SENTINELFLASH_GOLDEN_DIR must point at tests/golden"
#endif

namespace flash::core
{
namespace
{

std::string
goldenPath(const char *name)
{
    return std::string(SENTINELFLASH_GOLDEN_DIR) + "/" + name;
}

bool
updateMode()
{
    const char *env = std::getenv("SENTINELFLASH_UPDATE_GOLDEN");
    return env && *env && std::string(env) != "0";
}

/**
 * Compare @p actual against the committed snapshot, or rewrite the
 * snapshot in update mode.
 */
void
expectMatchesGolden(const char *name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    if (updateMode()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing snapshot " << path
                    << " (run with SENTINELFLASH_UPDATE_GOLDEN=1)";
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string expected = ss.str();
    EXPECT_EQ(expected, actual)
        << "metrics export drifted from " << path
        << "; if the change is intentional, regenerate with "
           "SENTINELFLASH_UPDATE_GOLDEN=1 and review the JSON diff";
}

/**
 * One deterministic small-config run: aged block, vendor-retry and
 * sentinel policies over every 4th wordline's MSB page.
 */
std::string
exportFor(nand::CellType cell_type)
{
    const bool tlc = cell_type == nand::CellType::TLC;
    nand::Chip chip(tlc ? test::mediumTlcGeometry()
                        : test::mediumQlcGeometry(),
                    tlc ? nand::tlcVoltageParams()
                        : nand::qlcVoltageParams(),
                    20260805);
    CharOptions opt;
    opt.sentinel.ratio = 0.01;
    opt.wordlineStride = 4;
    const FactoryCharacterizer characterizer(opt);
    const Characterization tables = characterizer.run(chip);
    const auto overlay = makeOverlay(chip.geometry(), opt.sentinel);

    chip.programBlock(1, 55, overlay);
    chip.setPeCycles(1, tlc ? 5000u : 3000u);
    chip.age(1, 8760.0, 25.0);

    const ecc::EccModel ecc(ecc::EccConfig{16384, tlc ? 130 : 120});
    const VendorRetryPolicy vendor(chip.model());
    SentinelPolicy sentinel(tables, chip.model().defaultVoltages());
    const auto runs = collectPolicyMetrics(chip, 1, {&vendor, &sentinel},
                                           ecc, overlay, {}, -1, 4, 2);
    std::ostringstream out;
    writePolicyMetricsJson(out, runs);
    return out.str();
}

TEST(GoldenStats, TlcPolicyMetricsMatchSnapshot)
{
    expectMatchesGolden("policy_metrics_tlc.json",
                        exportFor(nand::CellType::TLC));
}

TEST(GoldenStats, QlcPolicyMetricsMatchSnapshot)
{
    expectMatchesGolden("policy_metrics_qlc.json",
                        exportFor(nand::CellType::QLC));
}

} // namespace
} // namespace flash::core

namespace flash::ssd
{
namespace
{

/** Every fourth block probes worn, so refresh joins GC. */
class WornScrubDevice : public ScrubDevice
{
  public:
    ScrubProbe
    probe(int, int block, std::uint64_t probe_seq) override
    {
        ScrubProbe p;
        p.rber = block % 4 == 0 ? 0.01 : 1e-4;
        p.sentinelOffset = -3 - static_cast<int>(probe_seq % 3);
        return p;
    }
};

/**
 * @p requests of 1-3 pages at random page offsets over @p logical_pages,
 * one every 2 ms from @p start_us on, @p write_pct percent of them
 * writes.
 */
std::vector<trace::TraceRecord>
smallDeviceTrace(int requests, int write_pct, std::int64_t logical_pages,
                 std::uint64_t seed, double start_us)
{
    util::Rng rng(seed);
    std::vector<trace::TraceRecord> tr;
    for (int i = 0; i < requests; ++i) {
        trace::TraceRecord r;
        r.timestampUs = start_us + 2000.0 * i;
        r.offsetBytes = rng.uniformInt(
                            static_cast<std::uint64_t>(logical_pages))
            * 4096;
        r.sizeBytes =
            static_cast<std::uint32_t>(4096 * (1 + rng.uniformInt(3)));
        r.isRead = static_cast<int>(rng.uniformInt(100)) >= write_pct;
        tr.push_back(r);
    }
    return tr;
}

TEST(GoldenStats, SsdMetricsExportMatchesSnapshot)
{
    SsdConfig cfg;
    cfg.channels = 2;
    cfg.chipsPerChannel = 1;
    cfg.diesPerChip = 1;
    cfg.planesPerDie = 2;
    cfg.blocksPerPlane = 16;
    cfg.pagesPerBlock = 32;
    cfg.pageKb = 4;
    cfg.overprovision = 0.2;
    cfg.pipelinedRetry = true;

    EmpiricalReadCost cold("vendor", {{1, 4, 0}, {3, 12, 1}, {5, 22, 2}});
    FixedReadCost warm(4, 1, 0);
    SsdSim sim(cfg, SsdTiming{}, cold, 7);
    const std::int64_t pages = sim.ftl().logicalPages();

    WornScrubDevice device;
    ScrubberConfig scfg;
    scfg.intervalUs = 1000.0;
    scfg.probeBudget = 4;
    scfg.warmUs = 3000.0;
    scfg.refreshRber = 0.005;
    scfg.refreshPageBudget = 8;
    Scrubber scrub(scfg, device);
    sim.attachScrubber(&scrub);
    sim.setWarmReadCost(&warm);
    const SimReport first = sim.run(smallDeviceTrace(400, 70, pages, 11, 0.0));

    sim.attachScrubber(nullptr);
    sim.setWarmReadCost(nullptr);
    // The device's clocks persist: the second run submits after the
    // first one's last request.
    const SimReport second =
        sim.run(smallDeviceTrace(200, 0, pages, 12, 1.0e6));

    const util::MetricsRegistry &m1 = first.metrics;
    EXPECT_GT(m1.counter("ssd.gc.triggered_writes"), 0u);
    EXPECT_GT(m1.counter("scrub.read.warm"), 0u);
    EXPECT_GT(m1.counter("scrub.read.cold"), 0u);
    EXPECT_GT(m1.counter("scrub.refresh.pages"), 0u);
    const util::MetricsRegistry &m2 = second.metrics;
    EXPECT_EQ(m2.counters().count("ssd.write.page_ops"), 0u);
    EXPECT_EQ(m2.counters().count("scrub.read.cold"), 0u);
    EXPECT_EQ(m2.findHistogram("ssd.write.gc_stall_us"), nullptr);

    core::expectMatchesGolden("ssd_metrics_run1.json", m1.toJson());
    core::expectMatchesGolden("ssd_metrics_run2.json", m2.toJson());
}

} // namespace
} // namespace flash::ssd
