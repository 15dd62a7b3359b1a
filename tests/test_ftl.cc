#include <gtest/gtest.h>

#include <set>

#include "ssd/fleet/fleet.hh"
#include "ssd/ftl/page_ftl.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace flash::ssd
{
namespace
{

SsdConfig
smallConfig()
{
    SsdConfig c;
    c.channels = 2;
    c.chipsPerChannel = 1;
    c.diesPerChip = 1;
    c.planesPerDie = 2;
    c.blocksPerPlane = 16;
    c.pagesPerBlock = 32;
    c.pageKb = 4;
    c.overprovision = 0.2;
    return c;
}

TEST(SsdConfig, DerivedQuantities)
{
    const SsdConfig c = smallConfig();
    EXPECT_EQ(c.totalPlanes(), 4);
    EXPECT_EQ(c.physicalPages(), 4 * 16 * 32);
    EXPECT_LT(c.logicalPages(), c.physicalPages());
    EXPECT_NO_THROW(c.validate());
}

TEST(SsdConfig, ValidateRejectsNonsense)
{
    SsdConfig c = smallConfig();
    c.channels = 0;
    EXPECT_THROW(c.validate(), util::FatalError);
    c = smallConfig();
    c.overprovision = 0.0;
    EXPECT_THROW(c.validate(), util::FatalError);
}

TEST(Ftl, PreconditionMapsEverything)
{
    const PageFtl ftl(smallConfig());
    for (std::int64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn)
        EXPECT_TRUE(ftl.translate(lpn).valid()) << "lpn " << lpn;
}

TEST(Ftl, UnpreconditionedStartsUnmapped)
{
    const PageFtl ftl(smallConfig(), false);
    EXPECT_FALSE(ftl.translate(0).valid());
}

TEST(Ftl, WriteMapsAndRemaps)
{
    PageFtl ftl(smallConfig(), false);
    const auto e1 = ftl.write(7);
    EXPECT_TRUE(e1.target.valid());
    const auto a1 = ftl.translate(7);
    EXPECT_EQ(a1.plane, e1.target.plane);
    EXPECT_EQ(a1.block, e1.target.block);
    EXPECT_EQ(a1.page, e1.target.page);

    const auto e2 = ftl.write(7); // overwrite
    const auto a2 = ftl.translate(7);
    EXPECT_TRUE(a2.valid());
    EXPECT_FALSE(a2.plane == a1.plane && a2.block == a1.block
                 && a2.page == a1.page);
    (void)e2;
}

TEST(Ftl, WritesStripeAcrossPlanes)
{
    PageFtl ftl(smallConfig(), false);
    std::set<int> planes;
    for (int i = 0; i < 4; ++i)
        planes.insert(ftl.write(i).target.plane);
    EXPECT_EQ(planes.size(), 4u);
}

TEST(Ftl, OutOfRangeLpnFatal)
{
    PageFtl ftl(smallConfig(), false);
    EXPECT_THROW(ftl.translate(-1), util::FatalError);
    EXPECT_THROW(ftl.write(ftl.logicalPages()), util::FatalError);
}

TEST(Ftl, GcReclaimsSpaceUnderOverwrites)
{
    PageFtl ftl(smallConfig());
    util::Rng rng(1);
    // Overwrite far more pages than raw capacity; GC must keep up.
    const std::int64_t n = ftl.logicalPages();
    for (int round = 0; round < 8; ++round) {
        for (std::int64_t i = 0; i < n; ++i)
            ftl.write(rng.uniformInt(static_cast<std::uint64_t>(n)));
    }
    EXPECT_GT(ftl.stats().gcRuns, 0u);
    EXPECT_GT(ftl.stats().erases, 0u);
    EXPECT_GE(ftl.stats().waf(), 1.0);
    // All pages still translate.
    for (std::int64_t lpn = 0; lpn < n; lpn += 7)
        EXPECT_TRUE(ftl.translate(lpn).valid());
}

TEST(Ftl, SequentialOverwritesHaveLowWaf)
{
    PageFtl ftl(smallConfig());
    const std::int64_t n = ftl.logicalPages();
    for (int round = 0; round < 6; ++round) {
        for (std::int64_t i = 0; i < n; ++i)
            ftl.write(i);
    }
    // Sequential overwrite invalidates whole blocks: WAF near 1.
    EXPECT_LT(ftl.stats().waf(), 1.5);
}

TEST(Ftl, HotColdSkewIncreasesGcEfficiencyOverRandom)
{
    const std::int64_t writes = 6000;

    PageFtl random_ftl(smallConfig());
    util::Rng r1(2);
    const std::int64_t n = random_ftl.logicalPages();
    for (std::int64_t i = 0; i < writes; ++i)
        random_ftl.write(r1.uniformInt(static_cast<std::uint64_t>(n)));

    PageFtl hot_ftl(smallConfig());
    util::Rng r2(2);
    for (std::int64_t i = 0; i < writes; ++i) {
        // 90% of writes to 10% of the space.
        const bool hot = r2.bernoulli(0.9);
        const std::int64_t span = hot ? n / 10 : n - n / 10;
        const std::int64_t base = hot ? 0 : n / 10;
        hot_ftl.write(base
                      + static_cast<std::int64_t>(r2.uniformInt(
                          static_cast<std::uint64_t>(span))));
    }
    EXPECT_LE(hot_ftl.stats().waf(), random_ftl.stats().waf() + 0.2);
}

TEST(Ftl, HostWritesCounted)
{
    PageFtl ftl(smallConfig(), false);
    for (int i = 0; i < 10; ++i)
        ftl.write(i);
    EXPECT_EQ(ftl.stats().hostWrites, 10u);
}

TEST(Ftl, FreeBlocksDecreaseWithWrites)
{
    PageFtl ftl(smallConfig(), false);
    const int before = ftl.freeBlocks(0);
    for (std::int64_t i = 0; i < 200; ++i)
        ftl.write(i % ftl.logicalPages());
    int total_after = 0;
    for (int p = 0; p < smallConfig().totalPlanes(); ++p)
        total_after += ftl.freeBlocks(p);
    EXPECT_LT(total_after, before * smallConfig().totalPlanes());
}

TEST(Ftl, WriteEffectReportsGc)
{
    PageFtl ftl(smallConfig());
    util::Rng rng(3);
    const std::int64_t n = ftl.logicalPages();
    bool saw_gc = false;
    for (std::int64_t i = 0; i < 4 * n && !saw_gc; ++i) {
        const auto e =
            ftl.write(rng.uniformInt(static_cast<std::uint64_t>(n)));
        saw_gc = e.gcTriggered;
    }
    EXPECT_TRUE(saw_gc);
}

TEST(Ftl, RefreshBlockMigratesThenErasesUnderBudget)
{
    PageFtl ftl(smallConfig());
    ASSERT_TRUE(ftl.refreshCandidate(0, 0)) << "preconditioned full block";
    const int valid = ftl.blockValidPages(0, 0);
    ASSERT_GT(valid, 0);

    // Incremental refresh: each step migrates at most the budget; the
    // erase only happens once the block holds no valid data.
    int migrated = 0, steps = 0;
    RefreshStep step;
    while (!step.done) {
        step = ftl.refreshBlock(0, 0, 8);
        ASSERT_FALSE(step.busy);
        EXPECT_LE(step.migratedPages, 8);
        migrated += step.migratedPages;
        ASSERT_LT(++steps, 100) << "refresh must terminate";
    }
    EXPECT_EQ(migrated, valid);
    EXPECT_TRUE(step.erased);
    EXPECT_EQ(ftl.stats().refreshPages,
              static_cast<std::uint64_t>(valid));
    EXPECT_EQ(ftl.stats().refreshErases, 1u);
    EXPECT_GE(ftl.stats().migratedPages, ftl.stats().refreshPages);
    EXPECT_GE(ftl.stats().erases, ftl.stats().refreshErases);

    // The block is free again: no longer a candidate, and another
    // step reports done without erasing anything.
    EXPECT_FALSE(ftl.refreshCandidate(0, 0));
    const RefreshStep again = ftl.refreshBlock(0, 0, 8);
    EXPECT_TRUE(again.done);
    EXPECT_FALSE(again.erased);
    EXPECT_EQ(ftl.stats().refreshErases, 1u);

    ftl.checkInvariants();
    for (std::int64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn)
        ASSERT_TRUE(ftl.translate(lpn).valid()) << "lpn " << lpn;
}

TEST(Ftl, RefreshReportsActiveAndFillingBlocksBusy)
{
    PageFtl ftl(smallConfig(), false);
    const auto e = ftl.write(0);
    const int plane = e.target.plane;
    const int block = e.target.block;
    // A block still being filled is not refreshable: it is the
    // plane's write frontier.
    EXPECT_FALSE(ftl.refreshCandidate(plane, block));
    const RefreshStep step = ftl.refreshBlock(plane, block, 8);
    EXPECT_TRUE(step.busy);
    EXPECT_FALSE(step.done);
    EXPECT_EQ(ftl.stats().refreshPages, 0u);
    ftl.checkInvariants();
}

TEST(Ftl, EraseHookFiresForEveryRefreshAndGcErase)
{
    PageFtl ftl(smallConfig());
    std::uint64_t fired = 0;
    std::pair<int, int> last{-1, -1};
    ftl.setEraseHook([&](int plane, int block) {
        ++fired;
        last = {plane, block};
    });

    // Refresh erase reports through the hook with the right address.
    RefreshStep step;
    while (!step.done)
        step = ftl.refreshBlock(1, 3, 32);
    EXPECT_EQ(fired, ftl.stats().erases);
    EXPECT_EQ(last, (std::pair<int, int>{1, 3}));

    // GC erases report through the same hook: after heavy random
    // overwrites the hook count still equals the erase counter.
    util::Rng rng(11);
    const std::int64_t n = ftl.logicalPages();
    for (std::int64_t i = 0; i < 4 * n; ++i)
        ftl.write(rng.uniformInt(static_cast<std::uint64_t>(n)));
    EXPECT_GT(ftl.stats().gcRuns, 0u);
    EXPECT_EQ(fired, ftl.stats().erases);

    // Detaching stops the notifications.
    ftl.setEraseHook(nullptr);
    for (std::int64_t i = 0; i < 2 * n; ++i)
        ftl.write(rng.uniformInt(static_cast<std::uint64_t>(n)));
    EXPECT_LT(fired, ftl.stats().erases);
    ftl.checkInvariants();
}

TEST(Ftl, PreemptiveGcSkipsVictimsWithNothingToReclaim)
{
    // Writes stripe round-robin over planes, so a skewed stream fills
    // one plane with valid data: here writes 0, 1, 2 of every 4 go to
    // a hot 20% of the LPNs and write 3 to the cold rest, so plane 3
    // gathers cold data. Once its full blocks are all valid, GC ahead
    // of demand would copy a whole block to reclaim nothing, on every
    // allocation (from about write 2 800 on). Past about write 4 400
    // the plane has no room left and its writes go to other planes
    // (SkewedStreamSpillsToPlanesWithRoom); this stream stops before.
    const SsdConfig cfg = fleet::smallDeviceConfig();
    PageFtl ftl(cfg);
    const auto ppb = static_cast<std::uint64_t>(cfg.pagesPerBlock);
    const auto n = static_cast<std::uint64_t>(ftl.logicalPages());
    const std::uint64_t hot = n / 5;
    util::Rng rng(1);
    constexpr int kWrites = 4000;
    for (int i = 0; i < kWrites; ++i) {
        const std::uint64_t lpn = i % 4 != 3
            ? rng.uniformInt(hot)
            : hot + rng.uniformInt(n - hot);
        const FtlStats before = ftl.stats();
        ftl.write(static_cast<std::int64_t>(lpn));
        const FtlStats &after = ftl.stats();
        ASSERT_LE(after.migratedPages - before.migratedPages,
                  (after.gcRuns - before.gcRuns) * (ppb - 1))
            << "a GC run during write " << i << " copied a full block";
    }
    EXPECT_LE(ftl.stats().gcRuns, static_cast<std::uint64_t>(kWrites / 4));
    ftl.checkInvariants();
}

TEST(Ftl, SkewedStreamSpillsToPlanesWithRoom)
{
    // The stream above, run on: once plane 3 holds only valid pages
    // and no free block, its round-robin writes go to the next plane
    // that can take them instead of ending the run as overfull.
    const SsdConfig cfg = fleet::smallDeviceConfig();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        PageFtl ftl(cfg);
        const auto n = static_cast<std::uint64_t>(ftl.logicalPages());
        const std::uint64_t hot = n / 5;
        util::Rng rng(seed);
        constexpr int kWrites = 12000;
        for (int i = 0; i < kWrites; ++i) {
            const std::uint64_t lpn = i % 4 != 3
                ? rng.uniformInt(hot)
                : hot + rng.uniformInt(n - hot);
            ASSERT_NO_THROW(ftl.write(static_cast<std::int64_t>(lpn)))
                << "seed " << seed << " write " << i;
        }
        EXPECT_EQ(ftl.stats().hostWrites,
                  static_cast<std::uint64_t>(kWrites));
        EXPECT_NO_THROW(ftl.checkInvariants()) << "seed " << seed;
    }
}

TEST(Ftl, GcFreeBlockCountMatchesTheFreeFraction)
{
    // allocate() compares a plane's free blocks with an integer count
    // instead of its free fraction with gcThreshold; both must agree
    // for every free-block count a plane can have.
    for (double threshold : {1e-9, 0.05, 0.1, 0.25, 0.5, 0.999}) {
        for (int bpp = 2; bpp <= 1024; ++bpp) {
            const int count = PageFtl::gcFreeBlocks(bpp, threshold);
            int mismatches = 0;
            for (int n = 0; n <= bpp; ++n) {
                const bool by_fraction =
                    static_cast<double>(n) / static_cast<double>(bpp)
                    < threshold;
                mismatches += (n < count) != by_fraction ? 1 : 0;
            }
            EXPECT_EQ(mismatches, 0)
                << "bpp " << bpp << " threshold " << threshold;
        }
    }
}

/** Blocks of @p plane written but not full. */
int
partlyWrittenBlocks(const PageFtl &ftl, const SsdConfig &cfg, int plane)
{
    int partly = 0;
    for (int b = 0; b < cfg.blocksPerPlane; ++b) {
        const int next = ftl.blocks().block(plane, b).nextPage;
        partly += next > 0 && next < cfg.pagesPerBlock ? 1 : 0;
    }
    return partly;
}

TEST(Ftl, DemandGcKeepsTheBlockItsReHomingTook)
{
    // One plane of four 4-page blocks, 12 LPNs, no GC ahead of demand.
    // LPNs 0-11 fill blocks 0-2; rewriting 0, 1, 2 and 4 fills block
    // 3, the last free one, and leaves block 0 holding only LPN 3. The
    // next write finds the active block full and no free block: the
    // demand GC erases block 0 and re-homes LPN 3 into it, which makes
    // it the active block. The write must go there too; taking yet
    // another block would abandon block 0 half written, and here there
    // is none left to take.
    SsdConfig cfg;
    cfg.channels = cfg.chipsPerChannel = cfg.diesPerChip = 1;
    cfg.planesPerDie = 1;
    cfg.blocksPerPlane = 4;
    cfg.pagesPerBlock = 4;
    cfg.overprovision = 0.25;
    cfg.gcThreshold = 0.0;
    PageFtl ftl(cfg, false);
    ASSERT_EQ(ftl.logicalPages(), 12);

    WriteEffect last;
    for (std::int64_t lpn : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2,
                             4, 5}) {
        last = ftl.write(lpn);
        ASSERT_LE(partlyWrittenBlocks(ftl, cfg, 0), 1) << "after " << lpn;
        ftl.checkInvariants();
    }
    EXPECT_EQ(ftl.stats().gcRuns, 1u);
    EXPECT_EQ(last.gcMigratedPages, 1);
    EXPECT_EQ(ftl.translate(3).block, 0);
    EXPECT_EQ(ftl.translate(5).block, 0);
    EXPECT_EQ(ftl.blocks().block(0, 0).nextPage, 2);
    EXPECT_EQ(ftl.freeBlocks(0), 0);
}

} // namespace
} // namespace flash::ssd
