/**
 * @file
 * FTL/GC stress test: a skewed random write workload far beyond raw
 * capacity, with full invariant sweeps along the way. Catches lost
 * LPN mappings, double-owned physical pages, and accounting drift
 * between GC runs, migrated pages and erase counts.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ssd/ftl/page_ftl.hh"
#include "util/rng.hh"

namespace flash::ssd
{
namespace
{

SsdConfig
tinyConfig()
{
    SsdConfig c;
    c.channels = 2;
    c.chipsPerChannel = 1;
    c.diesPerChip = 1;
    c.planesPerDie = 2;
    c.blocksPerPlane = 24;
    c.pagesPerBlock = 32;
    c.pageKb = 4;
    c.overprovision = 0.2;
    return c;
}

TEST(FtlStress, SkewedOverwritesKeepInvariants)
{
    const SsdConfig cfg = tinyConfig();
    PageFtl ftl(cfg, true);
    ftl.checkInvariants();

    // Preconditioning maps the whole logical space.
    const std::int64_t lpns = ftl.logicalPages();
    ASSERT_EQ(lpns, cfg.logicalPages());
    for (std::int64_t lpn = 0; lpn < lpns; ++lpn)
        ASSERT_TRUE(ftl.translate(lpn).valid()) << "lpn " << lpn;

    // 80/20 hot/cold overwrites, ~8x the physical capacity, so GC
    // runs many times on every plane.
    util::Rng rng(97);
    const std::int64_t hot = std::max<std::int64_t>(1, lpns / 5);
    const std::uint64_t writes =
        static_cast<std::uint64_t>(cfg.physicalPages()) * 8;
    for (std::uint64_t i = 0; i < writes; ++i) {
        const std::int64_t lpn = rng.bernoulli(0.8)
            ? static_cast<std::int64_t>(rng.uniformInt(
                  static_cast<std::uint64_t>(hot)))
            : static_cast<std::int64_t>(rng.uniformInt(
                  static_cast<std::uint64_t>(lpns)));
        const WriteEffect effect = ftl.write(lpn);
        ASSERT_TRUE(effect.target.valid());
        if (effect.gcTriggered) {
            ASSERT_GE(effect.gcErases, 1);
            ASSERT_GE(effect.gcMigratedPages, 0);
        }
        // A full sweep is O(physical pages); sample it.
        if (i % 4096 == 0)
            ftl.checkInvariants();
    }
    ftl.checkInvariants();

    const FtlStats &stats = ftl.stats();
    EXPECT_EQ(stats.hostWrites, writes);
    EXPECT_GT(stats.gcRuns, 0u);
    // Every GC run erases at least one block, and only GC erases.
    EXPECT_GE(stats.erases, stats.gcRuns);
    EXPECT_GE(stats.waf(), 1.0);

    // No mapping was lost to GC migration.
    for (std::int64_t lpn = 0; lpn < lpns; ++lpn)
        ASSERT_TRUE(ftl.translate(lpn).valid()) << "lpn " << lpn;

    // GC runs ahead of demand whenever a plane's free fraction drops
    // below gcThreshold, and every run frees a net block, so the
    // steady state sits within one block of the threshold.
    const int floor_blocks = std::max(
        1, static_cast<int>(cfg.gcThreshold
                            * static_cast<double>(cfg.blocksPerPlane))
               - 1);
    for (int plane = 0; plane < cfg.totalPlanes(); ++plane) {
        EXPECT_GE(ftl.freeBlocks(plane), floor_blocks) << "plane " << plane;
        EXPECT_LE(ftl.freeBlocks(plane), cfg.blocksPerPlane);
    }
}

TEST(FtlStress, SequentialWrapAroundKeepsInvariants)
{
    // Pure sequential overwrite is the adversarial case for greedy GC
    // (whole blocks invalidate at once, victims have 0 valid pages).
    const SsdConfig cfg = tinyConfig();
    PageFtl ftl(cfg, true);
    const std::int64_t lpns = ftl.logicalPages();
    const std::uint64_t writes =
        static_cast<std::uint64_t>(cfg.physicalPages()) * 4;
    for (std::uint64_t i = 0; i < writes; ++i) {
        ftl.write(static_cast<std::int64_t>(
            i % static_cast<std::uint64_t>(lpns)));
        if (i % 8192 == 0)
            ftl.checkInvariants();
    }
    ftl.checkInvariants();
    EXPECT_GT(ftl.stats().gcRuns, 0u);
    // Sequential victims are empty; migration stays cheap relative to
    // host writes (WAF near 1).
    EXPECT_LT(ftl.stats().waf(), 1.5);
}

TEST(FtlStress, UnmappedWithoutPreconditioning)
{
    PageFtl ftl(tinyConfig(), false);
    ftl.checkInvariants();
    EXPECT_FALSE(ftl.translate(0).valid());
    EXPECT_FALSE(ftl.translate(ftl.logicalPages() - 1).valid());
    ftl.write(7);
    ftl.checkInvariants();
    EXPECT_TRUE(ftl.translate(7).valid());
    EXPECT_FALSE(ftl.translate(8).valid());
}

} // namespace
} // namespace flash::ssd
