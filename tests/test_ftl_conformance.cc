/**
 * @file
 * FTL zoo conformance suite, parameterized over every (FtlKind,
 * GcVictimPolicy) cell: preconditioned mapping invariants, free-list
 * consistency under random and wrap-around write stress, exact
 * effect-vs-stats accounting, erase-hook firing for every erase,
 * refresh-to-completion through the interface (standalone and driven
 * by the background scrubber with the invariant-audit flag on), the
 * exact write-amplification identities, a footprint that stays at the
 * allocated size, and fatal out-of-range block queries.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ssd/ftl/ftl_factory.hh"
#include "ssd/scrubber/scrubber.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace flash::ssd
{
namespace
{

/** Tiny organization both FTLs fit (6 spare blocks per plane). */
SsdConfig
tinyConfig(FtlKind ftl, GcVictimPolicy policy)
{
    SsdConfig c;
    c.channels = 1;
    c.chipsPerChannel = 1;
    c.diesPerChip = 1;
    c.planesPerDie = 2;
    c.blocksPerPlane = 24;
    c.pagesPerBlock = 16;
    c.pageKb = 4;
    c.overprovision = 0.25;
    c.ftl = ftl;
    c.gcPolicy = policy;
    return c;
}

class FtlConformance
    : public ::testing::TestWithParam<std::tuple<FtlKind, GcVictimPolicy>>
{
  protected:
    SsdConfig
    config() const
    {
        return tinyConfig(std::get<0>(GetParam()),
                          std::get<1>(GetParam()));
    }

    std::unique_ptr<FtlInterface>
    make(bool precondition = true) const
    {
        return makeFtl(config(), precondition);
    }
};

std::string
cellName(const ::testing::TestParamInfo<FtlConformance::ParamType> &info)
{
    return std::string(ftlKindName(std::get<0>(info.param))) + "_"
        + gcPolicyName(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, FtlConformance,
    ::testing::Combine(::testing::Values(FtlKind::Page, FtlKind::Fast),
                       ::testing::Values(GcVictimPolicy::Greedy,
                                         GcVictimPolicy::CostBenefit)),
    cellName);

TEST_P(FtlConformance, PreconditionMapsTheWholeSpaceUniquely)
{
    const auto ftl = make();
    const SsdConfig cfg = config();
    EXPECT_EQ(ftl->logicalPages(), cfg.logicalPages());

    std::set<std::tuple<int, int, int>> seen;
    for (std::int64_t lpn = 0; lpn < ftl->logicalPages(); ++lpn) {
        const PhysAddr a = ftl->translate(lpn);
        ASSERT_TRUE(a.valid()) << "lpn " << lpn << " unmapped";
        ASSERT_TRUE(seen.emplace(a.plane, a.block, a.page).second)
            << "two LPNs map to one physical page";
    }
    ftl->checkInvariants();

    // Preconditioning is not host traffic.
    EXPECT_EQ(ftl->stats().hostWrites, 0u);
    EXPECT_EQ(ftl->stats().migratedPages, 0u);
    EXPECT_EQ(ftl->stats().erases, 0u);
}

TEST_P(FtlConformance, RandomOverwritesKeepEveryInvariant)
{
    const auto ftl = make();
    std::uint64_t hook_erases = 0;
    ftl->setEraseHook([&](int plane, int block) {
        EXPECT_GE(plane, 0);
        EXPECT_GE(block, 0);
        ++hook_erases;
    });

    util::Rng rng(0xc0f0);
    std::uint64_t sum_migrated = 0, sum_erases = 0;
    std::uint64_t sum_switch = 0, sum_partial = 0, sum_full = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::int64_t lpn = static_cast<std::int64_t>(rng.uniformInt(
            static_cast<std::uint64_t>(ftl->logicalPages())));
        const WriteEffect e = ftl->write(lpn);
        ASSERT_TRUE(e.target.valid());
        const PhysAddr a = ftl->translate(lpn);
        ASSERT_EQ(a.plane, e.target.plane);
        ASSERT_EQ(a.block, e.target.block);
        ASSERT_EQ(a.page, e.target.page);
        sum_migrated += static_cast<std::uint64_t>(e.gcMigratedPages);
        sum_erases += static_cast<std::uint64_t>(e.gcErases);
        sum_switch += static_cast<std::uint64_t>(e.switchMerges);
        sum_partial += static_cast<std::uint64_t>(e.partialMerges);
        sum_full += static_cast<std::uint64_t>(e.fullMerges);
        if (i % 250 == 0)
            ftl->checkInvariants();
    }
    ftl->checkInvariants();

    // Exact accounting: per-write effects sum to the lifetime stats,
    // and the hook fired for every erase.
    const FtlStats &s = ftl->stats();
    EXPECT_EQ(s.hostWrites, 3000u);
    EXPECT_EQ(s.migratedPages, sum_migrated);
    EXPECT_EQ(s.erases, sum_erases);
    EXPECT_EQ(s.switchMerges, sum_switch);
    EXPECT_EQ(s.partialMerges, sum_partial);
    EXPECT_EQ(s.fullMerges, sum_full);
    EXPECT_EQ(hook_erases, s.erases);
    EXPECT_GT(s.erases, 0u) << "stress too light to recycle a block";

    // Free accounting stays sane under pressure.
    const SsdConfig cfg = config();
    int free_total = 0;
    for (int p = 0; p < cfg.totalPlanes(); ++p) {
        const int f = ftl->freeBlocks(p);
        EXPECT_GE(f, 0);
        EXPECT_LE(f, cfg.blocksPerPlane);
        free_total += f;
    }
    const double frac = ftl->freeFraction();
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0);
    EXPECT_NEAR(frac,
                static_cast<double>(free_total)
                    / static_cast<double>(cfg.totalPlanes()
                                          * cfg.blocksPerPlane),
                1e-12);
}

TEST_P(FtlConformance, SequentialWrapAroundStress)
{
    const auto ftl = make();
    const std::int64_t n = ftl->logicalPages();
    for (int round = 0; round < 3; ++round) {
        for (std::int64_t lpn = 0; lpn < n; ++lpn)
            ASSERT_TRUE(ftl->write(lpn).target.valid());
        ftl->checkInvariants();
    }
    const FtlStats &s = ftl->stats();
    EXPECT_EQ(s.hostWrites, static_cast<std::uint64_t>(3 * n));
    if (std::get<0>(GetParam()) == FtlKind::Fast) {
        // Sequential overwrites are the switch-merge best case.
        EXPECT_GT(s.switchMerges, 0u);
    }
    // Every LPN still resolves after the wraps.
    for (std::int64_t lpn = 0; lpn < n; ++lpn)
        ASSERT_TRUE(ftl->translate(lpn).valid());
}

TEST_P(FtlConformance, SkewedHotRangeStress)
{
    const auto ftl = make();
    util::Rng rng(0x407);
    const std::int64_t hot =
        std::max<std::int64_t>(1, ftl->logicalPages() / 10);
    for (int i = 0; i < 4000; ++i) {
        const std::int64_t span =
            rng.uniform() < 0.9 ? hot : ftl->logicalPages();
        ftl->write(static_cast<std::int64_t>(
            rng.uniformInt(static_cast<std::uint64_t>(span))));
        if (i % 500 == 0)
            ftl->checkInvariants();
    }
    ftl->checkInvariants();
    EXPECT_GT(ftl->stats().erases, 0u);
}

TEST_P(FtlConformance, WafIdentitiesAreExact)
{
    const auto ftl = make();
    util::Rng rng(0x3af);
    for (int i = 0; i < 2000; ++i) {
        ftl->write(static_cast<std::int64_t>(rng.uniformInt(
            static_cast<std::uint64_t>(ftl->logicalPages()))));
    }
    const FtlStats &s = ftl->stats();
    EXPECT_EQ(s.wafNumerator(), s.hostWrites + s.migratedPages);
    EXPECT_EQ(s.wafDenominator(), s.hostWrites);
    EXPECT_DOUBLE_EQ(s.waf(),
                     1.0
                         + static_cast<double>(s.migratedPages)
                             / static_cast<double>(s.hostWrites));
    EXPECT_GE(s.waf(), 1.0);
}

TEST_P(FtlConformance, RefreshRunsToCompletionThroughTheInterface)
{
    const auto ftl = make();
    const SsdConfig cfg = config();
    std::uint64_t hook_erases = 0;
    ftl->setEraseHook([&](int, int) { ++hook_erases; });

    // Light aging so refresh candidates exist next to live data.
    util::Rng rng(0x9e5);
    for (int i = 0; i < 500; ++i) {
        ftl->write(static_cast<std::int64_t>(rng.uniformInt(
            static_cast<std::uint64_t>(ftl->logicalPages()))));
    }

    int refreshed = 0;
    for (int plane = 0; plane < cfg.totalPlanes(); ++plane) {
        for (int block = 0; block < cfg.blocksPerPlane; ++block) {
            if (!ftl->refreshCandidate(plane, block))
                continue;
            // Budgeted steps until done; must terminate.
            bool done = false;
            for (int step = 0; step < 64 && !done; ++step) {
                const RefreshStep r = ftl->refreshBlock(plane, block, 4);
                ftl->checkInvariants();
                ASSERT_FALSE(r.busy)
                    << "candidate reported busy mid-refresh";
                done = r.done;
            }
            ASSERT_TRUE(done) << "refresh never completed";
            ++refreshed;
            if (refreshed >= 3)
                break;
        }
        if (refreshed >= 3)
            break;
    }
    ASSERT_GT(refreshed, 0) << "no refresh candidate after aging";
    const FtlStats &s = ftl->stats();
    EXPECT_GT(s.refreshPages + s.refreshErases, 0u);
    EXPECT_EQ(hook_erases, s.erases);
}

TEST_P(FtlConformance, ScrubberDrivesRefreshOverTheInterface)
{
    // The scrubber only sees FtlInterface; with the invariant-audit
    // flag on, every refresh step it takes audits the full mapping.
    const auto ftl = make();
    const SsdConfig cfg = config();
    SsdTiming timing;
    std::vector<double> plane_free(
        static_cast<std::size_t>(cfg.totalPlanes()), 0.0);
    util::MetricsRegistry metrics;

    ScrubHost host;
    host.config = &cfg;
    host.timing = &timing;
    host.planeFree = &plane_free;
    host.ftl = ftl.get();
    host.metrics = &metrics;

    /** Probe source that always trips the refresh threshold. */
    class HotScrubDevice : public ScrubDevice
    {
      public:
        ScrubProbe
        probe(int, int, std::uint64_t) override
        {
            ScrubProbe p;
            p.rber = 0.01;
            p.dRate = 0.01;
            p.sentinelOffset = -6;
            return p;
        }
    } device;

    ScrubberConfig scfg;
    scfg.intervalUs = 100.0;
    scfg.probeBudget = 16;
    scfg.warmUs = 1e9;
    scfg.refreshRber = 0.005;
    scfg.refreshPageBudget = 8;
    scfg.checkInvariants = true;
    Scrubber scrub(scfg, device);
    ftl->setEraseHook(
        [&](int plane, int block) { scrub.noteErase(plane, block); });

    // Interleave host writes with maintenance windows.
    util::Rng rng(0x5c12b);
    double now = 0.0;
    for (int i = 0; i < 400; ++i) {
        now += 400.0;
        scrub.maintain(host, now);
        ftl->write(static_cast<std::int64_t>(rng.uniformInt(
            static_cast<std::uint64_t>(ftl->logicalPages()))));
    }
    scrub.maintain(host, now + 1e6);
    ftl->checkInvariants();

    EXPECT_GT(metrics.counter("scrub.probes"), 0u);
    EXPECT_GT(metrics.counter("scrub.refresh.queued"), 0u);
    EXPECT_GT(ftl->stats().refreshPages + ftl->stats().refreshErases, 0u)
        << "scrubber never refreshed through the interface";
}

TEST_P(FtlConformance, FootprintIsTheAllocatedSize)
{
    // The footprint counts the tables at their allocated size, so GC,
    // merges and refresh, which move blocks on and off the free lists
    // and through the RW ring, leave it where it started.
    const auto ftl = make();
    const std::size_t bytes = ftl->footprintBytes();
    util::Rng rng(0xf007);
    for (int i = 0; i < 3000; ++i) {
        ftl->write(static_cast<std::int64_t>(rng.uniformInt(
            static_cast<std::uint64_t>(ftl->logicalPages()))));
        ASSERT_EQ(ftl->footprintBytes(), bytes) << "after write " << i;
    }
    ASSERT_GT(ftl->stats().erases, 0u) << "stream too light to run GC";

    const SsdConfig cfg = config();
    for (int plane = 0; plane < cfg.totalPlanes(); ++plane) {
        for (int block = 0; block < cfg.blocksPerPlane; ++block) {
            if (!ftl->refreshCandidate(plane, block))
                continue;
            RefreshStep r;
            do {
                r = ftl->refreshBlock(plane, block, 4);
                ASSERT_EQ(ftl->footprintBytes(), bytes);
            } while (!r.done && !r.busy);
        }
    }
    EXPECT_GT(ftl->stats().refreshErases, 0u);
    ftl->checkInvariants();
}

TEST_P(FtlConformance, OutOfRangeBlocksAreFatal)
{
    const auto ftl = make();
    const SsdConfig cfg = config();
    const int planes = cfg.totalPlanes();
    const int blocks = cfg.blocksPerPlane;
    for (int plane : {-1, planes})
        EXPECT_THROW(ftl->freeBlocks(plane), util::FatalError) << plane;
    const std::pair<int, int> outside[] = {
        {-1, 0}, {planes, 0}, {0, -1}, {0, blocks}, {planes - 1, blocks}};
    for (const auto &[plane, block] : outside) {
        SCOPED_TRACE("plane " + std::to_string(plane) + " block "
                     + std::to_string(block));
        EXPECT_THROW(ftl->blockValidPages(plane, block), util::FatalError);
        EXPECT_THROW(ftl->refreshCandidate(plane, block), util::FatalError);
        EXPECT_THROW(ftl->refreshBlock(plane, block, 4), util::FatalError);
    }
    ftl->checkInvariants();
}

TEST_P(FtlConformance, NamesAndFactoryAgree)
{
    const auto ftl = make();
    EXPECT_STREQ(ftl->name(),
                 ftlKindName(std::get<0>(GetParam())));
    EXPECT_GT(ftl->footprintBytes(), 0u);
}

} // namespace
} // namespace flash::ssd
