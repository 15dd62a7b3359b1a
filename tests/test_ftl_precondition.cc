/**
 * @file
 * PageFtl preconditioning against its oracle. The constructor builds
 * the full-drive layout directly; the oracle is the same FTL built
 * empty and filled by write(0), ..., write(L - 1). Both must agree on
 * every mapping and block, and must then react identically (effects,
 * stats, GC victims) to one random overwrite stream, which also pins
 * the hidden allocation clock, block stamps and write cursor. The
 * guard tests sweep small drives and check that the oracle's fill
 * never runs GC, so no drive is refused preconditioning. The layout
 * is kept implicit until a map chunk or block is first changed, so
 * the edge cases below drive
 * the first change of each kind against the oracle, and a fault count
 * checks that sparse writes leave most of the tables untouched. The
 * audit tests corrupt PageFtl's and FastFtl's tables one way at a time
 * and expect checkInvariants() to name each corruption.
 */

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ssd/fleet/fleet.hh"
#include "ssd/ftl/fast_ftl.hh"
#include "ssd/ftl/page_ftl.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace flash::ssd
{
namespace
{

/** One plane per channel, so `planes` can be any positive count. */
SsdConfig
organization(int planes, int blocks, int pages_per_block,
             double overprovision)
{
    SsdConfig c;
    c.channels = planes;
    c.chipsPerChannel = 1;
    c.diesPerChip = 1;
    c.planesPerDie = 1;
    c.blocksPerPlane = blocks;
    c.pagesPerBlock = pages_per_block;
    c.pageKb = 4;
    c.overprovision = overprovision;
    return c;
}

enum class Shape
{
    Default,      ///< SsdConfig{}: the full-size drive of Fig 14
    FleetSmall,   ///< fleet::smallDeviceConfig()
    Uneven,       ///< 3 planes do not divide the 307 logical pages
    LastPageOnly, ///< each plane's last block gets exactly one page
    SinglePlane,
};

SsdConfig
shapeConfig(Shape shape)
{
    switch (shape) {
      case Shape::Default:
        return SsdConfig{};
      case Shape::FleetSmall:
        return fleet::smallDeviceConfig();
      case Shape::Uneven:
        return organization(3, 16, 8, 0.2);
      case Shape::LastPageOnly:
        // 256 * (1 - 62/256) = 194 = 2 planes x (12 * 8 + 1) pages.
        return organization(2, 16, 8, 0.2421875);
      case Shape::SinglePlane:
        return organization(1, 16, 16, 0.2);
    }
    return SsdConfig{};
}

/** Pages the sequential fill puts on plane 0 (the fullest plane). */
std::int64_t
plane0Pages(const SsdConfig &c)
{
    return (c.logicalPages() + c.totalPlanes() - 1) / c.totalPlanes();
}

bool
sameAddr(const PhysAddr &a, const PhysAddr &b)
{
    return a.plane == b.plane && a.block == b.block && a.page == b.page;
}

/** The oracle: an empty FTL filled by sequential host writes. */
void
fillByWrites(PageFtl &ftl)
{
    for (std::int64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn)
        ftl.write(lpn);
}

/** Mapping and per-block state of two FTLs over one organization. */
void
expectSameLayout(const PageFtl &a, const PageFtl &b, const SsdConfig &c)
{
    ASSERT_EQ(a.logicalPages(), b.logicalPages());
    for (std::int64_t lpn = 0; lpn < a.logicalPages(); ++lpn) {
        ASSERT_TRUE(sameAddr(a.translate(lpn), b.translate(lpn)))
            << "lpn " << lpn;
    }
    for (int p = 0; p < c.totalPlanes(); ++p) {
        ASSERT_EQ(a.freeBlocks(p), b.freeBlocks(p)) << "plane " << p;
        for (int blk = 0; blk < c.blocksPerPlane; ++blk) {
            ASSERT_EQ(a.blockValidPages(p, blk), b.blockValidPages(p, blk))
                << "plane " << p << " block " << blk;
            ASSERT_EQ(a.refreshCandidate(p, blk), b.refreshCandidate(p, blk))
                << "plane " << p << " block " << blk;
        }
    }
    EXPECT_EQ(a.footprintBytes(), b.footprintBytes());
}

class PageFtlLayout
    : public ::testing::TestWithParam<std::tuple<Shape, GcVictimPolicy>>
{
  protected:
    SsdConfig
    config() const
    {
        SsdConfig c = shapeConfig(std::get<0>(GetParam()));
        c.gcPolicy = std::get<1>(GetParam());
        return c;
    }
};

std::string
layoutName(const ::testing::TestParamInfo<PageFtlLayout::ParamType> &info)
{
    static const char *const shapes[] = {"default", "fleet_small", "uneven",
                                          "last_page_only", "single_plane"};
    return std::string(shapes[static_cast<int>(std::get<0>(info.param))])
        + (std::get<1>(info.param) == GcVictimPolicy::Greedy
               ? "_greedy"
               : "_costbenefit");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PageFtlLayout,
    ::testing::Combine(::testing::Values(Shape::Default, Shape::FleetSmall,
                                         Shape::Uneven, Shape::LastPageOnly,
                                         Shape::SinglePlane),
                       ::testing::Values(GcVictimPolicy::Greedy,
                                         GcVictimPolicy::CostBenefit)),
    layoutName);

TEST_P(PageFtlLayout, DirectFillMatchesSequentialWrites)
{
    const SsdConfig c = config();
    switch (std::get<0>(GetParam())) {
      case Shape::Uneven:
        ASSERT_NE(c.logicalPages() % c.totalPlanes(), 0);
        break;
      case Shape::LastPageOnly:
        ASSERT_EQ(c.logicalPages() % c.totalPlanes(), 0);
        ASSERT_EQ(plane0Pages(c) % c.pagesPerBlock, 1);
        break;
      case Shape::SinglePlane:
        ASSERT_EQ(c.totalPlanes(), 1);
        break;
      default:
        break;
    }

    PageFtl direct(c, true);
    PageFtl oracle(c, false);
    fillByWrites(oracle);
    ASSERT_EQ(oracle.stats().gcRuns, 0u);

    direct.checkInvariants();
    oracle.checkInvariants();
    expectSameLayout(direct, oracle, c);

    const FtlStats &zero = direct.stats();
    EXPECT_EQ(zero.hostWrites, 0u);
    EXPECT_EQ(zero.gcRuns, 0u);
    EXPECT_EQ(zero.migratedPages, 0u);
    EXPECT_EQ(zero.erases, 0u);

    // Same random overwrites from here on: any difference in the
    // write cursor, allocation clock or block stamps shows up as a
    // different target, victim or cost-benefit score.
    const FtlStats base = oracle.stats();
    const std::int64_t lpns = c.logicalPages();
    const std::int64_t writes =
        std::min<std::int64_t>(c.physicalPages(), std::int64_t{1} << 20);
    util::Rng rng(12);
    for (std::int64_t i = 0; i < writes; ++i) {
        const auto lpn = static_cast<std::int64_t>(
            rng.uniformInt(static_cast<std::uint64_t>(lpns)));
        const WriteEffect a = direct.write(lpn);
        const WriteEffect b = oracle.write(lpn);
        ASSERT_TRUE(sameAddr(a.target, b.target)) << "write " << i;
        ASSERT_EQ(a.gcTriggered, b.gcTriggered) << "write " << i;
        ASSERT_EQ(a.gcMigratedPages, b.gcMigratedPages) << "write " << i;
        ASSERT_EQ(a.gcErases, b.gcErases) << "write " << i;
    }
    const FtlStats &s = direct.stats();
    const FtlStats &o = oracle.stats();
    EXPECT_GT(s.gcRuns, 0u) << "the stream must exercise GC";
    EXPECT_EQ(s.hostWrites, o.hostWrites - base.hostWrites);
    EXPECT_EQ(s.gcRuns, o.gcRuns - base.gcRuns);
    EXPECT_EQ(s.migratedPages, o.migratedPages - base.migratedPages);
    EXPECT_EQ(s.erases, o.erases - base.erases);
    direct.checkInvariants();
    expectSameLayout(direct, oracle, c);
}

/**
 * Whether the oracle's fill runs GC. It stops at the first erase (on
 * an empty drive only GC erases).
 */
bool
oracleRunsGc(const SsdConfig &c)
{
    struct FirstErase
    {
    };
    PageFtl oracle(c, false);
    oracle.setEraseHook([](int, int) { throw FirstErase{}; });
    try {
        fillByWrites(oracle);
    } catch (const FirstErase &) {
    }
    return oracle.stats().gcRuns > 0;
}

/** Constructs (true) or reports a fatal error (false). */
bool
preconditions(const SsdConfig &c)
{
    try {
        PageFtl ftl(c, true);
        return true;
    } catch (const util::FatalError &) {
        return false;
    }
}

/** Preconditions @p c and checks it against the write-filled oracle. */
void
expectPreconditionsLikeTheOracle(const SsdConfig &c, const std::string &what)
{
    ASSERT_FALSE(oracleRunsGc(c)) << what;
    ASSERT_TRUE(preconditions(c)) << what;
    PageFtl direct(c, true);
    PageFtl oracle(c, false);
    fillByWrites(oracle);
    expectSameLayout(direct, oracle, c);
}

TEST(PageFtlPreconditionGuard, RefusesExactlyWhenTheWriteFillRunsGc)
{
    // A fill writes each LPN once, so every full block is all-valid:
    // GC ahead of demand leaves such victims alone, and demand never
    // comes, since a plane's share fits its blocks. So the write fill
    // never runs GC, and no drive is refused, however small its
    // over-provisioning against gcThreshold.
    for (int planes : {1, 3})
        for (int blocks : {2, 4, 16})
            for (int ppb : {1, 2, 8})
                for (double op : {0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.49})
                    for (double thr : {0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8}) {
                        SsdConfig c = organization(planes, blocks, ppb, op);
                        c.gcThreshold = thr;
                        const std::string what = std::to_string(planes)
                            + " planes, " + std::to_string(blocks)
                            + " blocks, " + std::to_string(ppb)
                            + " pages, op " + std::to_string(op)
                            + ", gcThreshold " + std::to_string(thr);
                        ASSERT_EQ(preconditions(c), !oracleRunsGc(c)) << what;
                        expectPreconditionsLikeTheOracle(c, what);
                        if (HasFatalFailure())
                            return;
                    }
}

TEST(PageFtlPreconditionGuard, BoundaryFollowsTheLastBlockWrittenTwice)
{
    // Each plane fills blocks 0..12; block 12 takes a single page, so
    // the last free-fraction test runs while block 11 is active, with
    // 4 of 16 blocks free. Above 0.25 that test asks for GC ahead of
    // demand, but every victim is all-valid, so none runs and the
    // drive preconditions on both sides of 4/16.
    SsdConfig c = shapeConfig(Shape::LastPageOnly);
    for (double thr : {0.25, std::nextafter(0.25, 1.0), 0.2}) {
        c.gcThreshold = thr;
        expectPreconditionsLikeTheOracle(c,
                                         "gcThreshold " + std::to_string(thr));
        if (HasFatalFailure())
            return;
    }
}

/** A preconditioned FTL next to its write-filled oracle. */
struct FilledPair
{
    explicit FilledPair(const SsdConfig &c)
        : config(c), direct(c, true), oracle(c, false)
    {
        fillByWrites(oracle);
    }

    /** The same host write on both; their effects must agree. */
    void
    write(std::int64_t lpn)
    {
        const WriteEffect a = direct.write(lpn);
        const WriteEffect b = oracle.write(lpn);
        ASSERT_TRUE(sameAddr(a.target, b.target)) << "lpn " << lpn;
        ASSERT_EQ(a.gcTriggered, b.gcTriggered) << "lpn " << lpn;
        ASSERT_EQ(a.gcMigratedPages, b.gcMigratedPages) << "lpn " << lpn;
        ASSERT_EQ(a.gcErases, b.gcErases) << "lpn " << lpn;
    }

    void
    expectSame() const
    {
        direct.checkInvariants();
        oracle.checkInvariants();
        expectSameLayout(direct, oracle, config);
    }

    SsdConfig config;
    PageFtl direct;
    PageFtl oracle;
};

TEST(PageFtlImplicitLayout, RefreshOfAnUntouchedBlock)
{
    for (Shape shape : {Shape::FleetSmall, Shape::Uneven}) {
        FilledPair ftls(shapeConfig(shape));
        // Block 0 of plane 0 is full and no write has touched it.
        ASSERT_TRUE(ftls.direct.refreshCandidate(0, 0));
        RefreshStep a, b;
        int steps = 0;
        do {
            a = ftls.direct.refreshBlock(0, 0, 3);
            b = ftls.oracle.refreshBlock(0, 0, 3);
            ASSERT_EQ(a.migratedPages, b.migratedPages);
            ASSERT_EQ(a.gcMigratedPages, b.gcMigratedPages);
            ASSERT_EQ(a.gcErases, b.gcErases);
            ASSERT_EQ(a.erased, b.erased);
            ASSERT_EQ(a.done, b.done);
            ASSERT_EQ(a.busy, b.busy);
            ASSERT_LT(++steps, 1000);
        } while (!a.done && !a.busy);
        EXPECT_TRUE(a.erased);
        EXPECT_EQ(ftls.direct.stats().refreshErases, 1u);
        ftls.expectSame();
    }
}

TEST(PageFtlImplicitLayout, WriteToTheLastLpn)
{
    // The map goes live in chunks of 256 LPNs; L - 1 sits in the
    // last one, which is partial.
    for (Shape shape : {Shape::FleetSmall, Shape::Uneven}) {
        FilledPair ftls(shapeConfig(shape));
        const std::int64_t last = ftls.config.logicalPages() - 1;
        ASSERT_NE(ftls.config.logicalPages() % 256, 0);
        ftls.write(last);
        ftls.write(last);
        ftls.write(last - 1);
        ftls.expectSame();
    }
}

TEST(PageFtlImplicitLayout, WritesIntoEachPlanesLastPartialBlock)
{
    // Uneven: plane p holds ceil((307 - p) / 3) = 103, 102, 102 pages,
    // so every plane's active block (12) is partial. The next P
    // writes land there, one per plane.
    const SsdConfig c = shapeConfig(Shape::Uneven);
    FilledPair ftls(c);
    for (int p = 0; p < c.totalPlanes(); ++p) {
        ASSERT_FALSE(ftls.direct.refreshCandidate(p, 12)) << "plane " << p;
        ASSERT_GT(ftls.direct.blockValidPages(p, 12), 0) << "plane " << p;
    }
    for (std::int64_t lpn : {0, 100, 200}) {
        const PhysAddr before = ftls.direct.translate(lpn);
        ftls.write(lpn);
        const PhysAddr after = ftls.direct.translate(lpn);
        EXPECT_EQ(after.block, 12) << "lpn " << lpn;
        EXPECT_FALSE(sameAddr(before, after)) << "lpn " << lpn;
    }
    ftls.expectSame();
}

TEST(PageFtlImplicitLayout, GcCollectsAnUntouchedVictim)
{
    // Write i lands on plane (L + i) mod 4, and every write rewrites
    // LPN 1 except plane 0's. Plane 0 takes plane 1's other LPNs (5, 9,
    // ...), each once, so it gains valid pages and loses none until its
    // second-to-last free block is full; from then on it writes LPN 1
    // too, and each such page dies at the next write. When its last
    // block is full, GC runs on demand: every other full block of
    // plane 0 is all-valid, so both policies pick block 0, which
    // nothing has touched, and re-homing its pages collects the
    // all-invalid last block.
    for (GcVictimPolicy policy :
         {GcVictimPolicy::Greedy, GcVictimPolicy::CostBenefit}) {
        SsdConfig c = shapeConfig(Shape::FleetSmall);
        c.gcPolicy = policy;
        ASSERT_EQ(c.totalPlanes(), 4);
        FilledPair ftls(c);
        std::vector<std::pair<int, int>> erased;
        ftls.direct.setEraseHook(
            [&](int plane, int block) { erased.emplace_back(plane, block); });
        auto plane0Erased = [&] {
            return std::any_of(erased.begin(), erased.end(),
                               [](const auto &e) { return e.first == 0; });
        };
        std::int64_t cold = 5;
        int filled = -1; // pages in plane 0's second-to-last block
        for (std::int64_t i = 0; !plane0Erased(); ++i) {
            ASSERT_LT(i, c.logicalPages()) << "plane 0 never ran GC";
            if ((c.logicalPages() + i) % 4 != 0
                || filled == c.pagesPerBlock) {
                ftls.write(1);
                continue;
            }
            const int free_before = ftls.direct.freeBlocks(0);
            ftls.write(cold);
            cold += 4;
            if (filled >= 0)
                ++filled;
            else if (free_before == 2 && ftls.direct.freeBlocks(0) == 1)
                filled = 1;
        }
        const auto first0 = std::find_if(
            erased.begin(), erased.end(),
            [](const auto &e) { return e.first == 0; });
        EXPECT_EQ(first0->second, 0);
        ftls.expectSame();
    }
}

TEST(PageFtlImplicitLayout, EmptyDriveIsUnmappedUntilWritten)
{
    for (Shape shape : {Shape::FleetSmall, Shape::Uneven}) {
        const SsdConfig c = shapeConfig(shape);
        PageFtl empty(c, false);
        for (std::int64_t lpn = 0; lpn < c.logicalPages(); ++lpn)
            ASSERT_FALSE(empty.translate(lpn).valid()) << "lpn " << lpn;
        for (int p = 0; p < c.totalPlanes(); ++p) {
            ASSERT_EQ(empty.freeBlocks(p), c.blocksPerPlane);
            for (int b = 0; b < c.blocksPerPlane; ++b)
                ASSERT_EQ(empty.blockValidPages(p, b), 0);
        }
        empty.checkInvariants();

        // Filled by writes, it is the oracle of the implicit layout.
        PageFtl direct(c, true);
        fillByWrites(empty);
        direct.checkInvariants();
        empty.checkInvariants();
        expectSameLayout(direct, empty, c);
    }
}

} // namespace

/** Reaches into PageFtl's map and block table to corrupt them. */
struct PageFtlProbe
{
    static std::int32_t &
    mapEntry(PageFtl &ftl, std::int64_t lpn)
    {
        return ftl.mapSlot(lpn);
    }

    /** The table's owner entry, its row made live first. */
    static std::int32_t &
    ownerEntry(PageFtl &ftl, const PhysAddr &a)
    {
        return ftl.ownerRow(a.plane, a.block)[a.page];
    }

    static BlockTable &table(PageFtl &ftl) { return ftl.blocks_; }
};

/** Reaches into FastFtl's block table and roles to corrupt them. */
struct FastFtlProbe
{
    static BlockTable &table(FastFtl &ftl) { return ftl.blocks_; }

    static int &
    slotToBlock(FastFtl &ftl, std::int64_t lbn)
    {
        return ftl.planes_[static_cast<std::size_t>(ftl.planeOf(lbn))]
            .slotToBlock[static_cast<std::size_t>(ftl.slotOf(lbn))];
    }

    static int &
    swBlock(FastFtl &ftl, int plane)
    {
        return ftl.planes_[static_cast<std::size_t>(plane)].swBlock;
    }

    static std::vector<int> &
    rwBlocks(FastFtl &ftl, int plane)
    {
        return ftl.planes_[static_cast<std::size_t>(plane)].rwBlocks;
    }
};

namespace
{

/** checkInvariants() panics with a message containing @p what. */
void
expectAuditPanic(const FtlInterface &ftl, const std::string &what)
{
    try {
        ftl.checkInvariants();
        ADD_FAILURE() << "no panic; expected \"" << what << '"';
    } catch (const util::PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(PageFtlAudit, CatchesCorruptedTables)
{
    // Rewriting LPN 5 makes its map chunk live, and the owner rows of
    // its old page's block and of its new page's block; everything
    // else stays implicit.
    const SsdConfig c = shapeConfig(Shape::FleetSmall);
    PhysAddr old_page, new_page;
    const auto ftl = [&] {
        auto f = std::make_unique<PageFtl>(c, true);
        old_page = f->translate(5);
        f->write(5);
        new_page = f->translate(5);
        f->checkInvariants();
        return f;
    };
    {
        SCOPED_TRACE("live map entry names another LPN's page");
        auto f = ftl();
        PageFtlProbe::mapEntry(*f, 6) = static_cast<std::int32_t>(
            f->blocks().pack(f->translate(7)));
        expectAuditPanic(*f, "lost LPN mapping");
    }
    {
        SCOPED_TRACE("live map entry past the drive");
        auto f = ftl();
        PageFtlProbe::mapEntry(*f, 6) =
            static_cast<std::int32_t>(c.physicalPages());
        expectAuditPanic(*f, "mapped address out of range");
    }
    {
        SCOPED_TRACE("live map entry dropped under a sequential owner");
        auto f = ftl();
        PageFtlProbe::mapEntry(*f, 6) = -1;
        expectAuditPanic(*f, "stale owner");
    }
    {
        SCOPED_TRACE("live owner row names another LPN");
        auto f = ftl();
        PageFtlProbe::ownerEntry(*f, new_page) = 9;
        expectAuditPanic(*f, "lost LPN mapping");
    }
    {
        SCOPED_TRACE("invalidated owner entry revived");
        auto f = ftl();
        PageFtlProbe::ownerEntry(*f, old_page) = 5;
        expectAuditPanic(*f, "stale owner");
    }
    {
        SCOPED_TRACE("invalidated owner entry names an LPN past the drive");
        auto f = ftl();
        PageFtlProbe::ownerEntry(*f, old_page) =
            static_cast<std::int32_t>(c.logicalPages() + 300);
        expectAuditPanic(*f, "owner names an LPN past the drive");
    }
    for (const PhysAddr &a : {old_page, new_page, PhysAddr{2, 3, 0}}) {
        SCOPED_TRACE("wrong valid count on plane "
                     + std::to_string(a.plane) + " block "
                     + std::to_string(a.block));
        auto f = ftl();
        ++PageFtlProbe::table(*f).at(a.plane, a.block).validPages;
        expectAuditPanic(*f, "valid-page count mismatch");
    }
    {
        SCOPED_TRACE("write point moved back under a live owner");
        auto f = ftl();
        PageFtlProbe::table(*f).at(new_page.plane, new_page.block).nextPage =
            new_page.page;
        expectAuditPanic(*f, "owner past the write point");
    }
    {
        SCOPED_TRACE("free-listed block with a write point");
        auto f = ftl();
        const int free_block = f->blocks().freeList(1).back();
        PageFtlProbe::table(*f).at(1, free_block).nextPage = 1;
        expectAuditPanic(*f, "non-empty block on the free list");
    }
}

TEST(FastFtlAudit, CatchesCorruptedTables)
{
    // Rewriting LPN 5 (offset 5 of lbn 0, whose data block is full)
    // lands in an RW log; writing offset 0 of lbn 2 opens the SW log.
    // Both logs are on plane 0, as lbns 0 and 2 are; lbn 1's data
    // block is on plane 1.
    // Two planes of 24 blocks leave FAST six spare blocks per plane.
    const SsdConfig c = organization(2, 24, 16, 0.25);
    const std::int64_t lbn2 = 2 * c.pagesPerBlock;
    PhysAddr old_page, new_page, sw_page;
    const auto ftl = [&] {
        auto f = std::make_unique<FastFtl>(c, true);
        old_page = f->translate(5);
        f->write(5);
        new_page = f->translate(5);
        f->write(lbn2);
        sw_page = f->translate(lbn2);
        f->checkInvariants();
        return f;
    };
    {
        SCOPED_TRACE("write point moved back under a live owner");
        auto f = ftl();
        FastFtlProbe::table(*f).at(new_page.plane, new_page.block).nextPage =
            new_page.page;
        expectAuditPanic(*f, "owner past the write point");
    }
    {
        SCOPED_TRACE("invalidated owner entry revived");
        auto f = ftl();
        FastFtlProbe::table(*f).row(old_page.plane,
                                    old_page.block)[old_page.page] = 5;
        expectAuditPanic(*f, "stale owner");
    }
    {
        SCOPED_TRACE("free-listed block with a write point");
        auto f = ftl();
        const int free_block = f->blocks().freeList(1).back();
        FastFtlProbe::table(*f).at(1, free_block).nextPage = 1;
        expectAuditPanic(*f, "non-empty block on the free list");
    }
    {
        SCOPED_TRACE("data block no slot maps");
        auto f = ftl();
        FastFtlProbe::slotToBlock(*f, 1) = -1;
        expectAuditPanic(*f, "orphan data block");
    }
    {
        SCOPED_TRACE("SW log the plane does not name");
        auto f = ftl();
        ASSERT_EQ(FastFtlProbe::swBlock(*f, sw_page.plane), sw_page.block);
        FastFtlProbe::swBlock(*f, sw_page.plane) = -1;
        expectAuditPanic(*f, "orphan SW log block");
    }
    {
        SCOPED_TRACE("RW log missing from the ring");
        auto f = ftl();
        std::vector<int> &ring = FastFtlProbe::rwBlocks(*f, new_page.plane);
        ASSERT_EQ(ring, std::vector<int>{new_page.block});
        ring.clear();
        expectAuditPanic(*f, "orphan RW log block");
    }
    for (const PhysAddr &a : {old_page, new_page, PhysAddr{1, 3, 0}}) {
        SCOPED_TRACE("wrong valid count on plane "
                     + std::to_string(a.plane) + " block "
                     + std::to_string(a.block));
        auto f = ftl();
        ++FastFtlProbe::table(*f).at(a.plane, a.block).validPages;
        expectAuditPanic(*f, "valid-page count mismatch");
    }
}

TEST(PageFtlImplicitLayout, SparseWritesFaultInFewTablePages)
{
    // Counted, not timed: minor page faults of this process. Built
    // eagerly, the map and owner arrays fault in every one of their
    // pages. Built lazily, writes fault in only the map chunks and
    // owner rows they change. The writes fall in a hot set of 1% of
    // the LPNs, as a trace's do; a write anywhere on the drive costs
    // up to one map page and two owner pages, so 1 000 of them spread
    // over all of it would near the bound by themselves.
    const SsdConfig c;
    const std::int64_t table_pages =
        (c.logicalPages() + c.physicalPages()) * 4 / 4096;
    const auto hot = static_cast<std::uint64_t>(c.logicalPages() / 100);
    auto minorFaults = [] {
        rusage u{};
        getrusage(RUSAGE_SELF, &u);
        return static_cast<std::int64_t>(u.ru_minflt);
    };

    const std::int64_t before = minorFaults();
    PageFtl ftl(c, true);
    util::Rng rng(2024);
    for (int i = 0; i < 1000; ++i)
        ftl.write(static_cast<std::int64_t>(rng.uniformInt(hot)));
    const std::int64_t faults = minorFaults() - before;
    EXPECT_LT(faults, table_pages / 4)
        << faults << " minor faults against " << table_pages
        << " table pages";
}

/** validate()'s message, or "" when it accepts the organization. */
std::string
validateError(const SsdConfig &c)
{
    try {
        c.validate();
        return "";
    } catch (const util::FatalError &e) {
        return e.what();
    }
}

TEST(SsdConfigRange, RejectsOrganizationsPastThe32BitTables)
{
    // 2^16 channels x 2^16 chips: the plane count overflows int.
    SsdConfig planes;
    planes.channels = 1 << 16;
    planes.chipsPerChannel = 1 << 16;
    EXPECT_NE(validateError(planes).find("plane count"), std::string::npos)
        << validateError(planes);

    // 2^12 planes x 2^11 blocks x 2^8 pages = 2^31 physical pages: one
    // past what a packed int32 page number holds.
    SsdConfig pages = organization(1 << 12, 1 << 11, 1 << 8, 0.1);
    EXPECT_NE(validateError(pages).find("physical pages"), std::string::npos)
        << validateError(pages);
    EXPECT_THROW(pages.validate(), util::FatalError);

    // 255 pages per block leaves 2^31 - 2^23 pages, which fit.
    pages.pagesPerBlock = (1 << 8) - 1;
    EXPECT_EQ(validateError(pages), "");
}

} // namespace
} // namespace flash::ssd
