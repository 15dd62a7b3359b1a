/**
 * Per-block inferred-voltage cache: unit semantics (hit / miss /
 * stale / store / rewarm accounting, epoch keying) and the
 * cache-seeded SentinelPolicy flow — a hit skips the assist read,
 * epochs go stale on P/E-cycle or retention change, and the counters
 * always sum to the number of policy sessions.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/read_policy.hh"
#include "core/voltage_cache.hh"
#include "test_support.hh"
#include "util/metrics.hh"

namespace flash::core
{
namespace
{

TEST(VoltageCache, MissThenStoreThenHit)
{
    VoltageCache cache;
    const BlockEpoch epoch{5000, 8760.0, 25.0};
    EXPECT_FALSE(cache.lookup(7, epoch).has_value());
    cache.store(7, epoch, -12);
    const auto hit = cache.lookup(7, epoch);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, -12);
    EXPECT_EQ(cache.size(), 1u);

    const auto s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.stales, 0u);
    EXPECT_EQ(s.stores, 1u);
}

TEST(VoltageCache, EpochMismatchIsStaleAndDropsTheEntry)
{
    VoltageCache cache;
    const BlockEpoch programmed{3000, 100.0, 25.0};
    cache.store(2, programmed, 8);

    // P/E cycles moved: stale once, then a plain miss (entry gone).
    const BlockEpoch cycled{3500, 100.0, 25.0};
    EXPECT_FALSE(cache.lookup(2, cycled).has_value());
    EXPECT_FALSE(cache.lookup(2, cycled).has_value());
    auto s = cache.stats();
    EXPECT_EQ(s.stales, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(cache.size(), 0u);

    // Retention hours moved: same story.
    cache.store(2, programmed, 8);
    EXPECT_FALSE(cache.lookup(2, BlockEpoch{3000, 200.0, 25.0}));
    // Temperature moved: also an epoch change.
    cache.store(2, programmed, 8);
    EXPECT_FALSE(cache.lookup(2, BlockEpoch{3000, 100.0, 40.0}));
    s = cache.stats();
    EXPECT_EQ(s.stales, 3u);
}

TEST(VoltageCache, EpochComparisonToleratesFloatRoundTrips)
{
    // Aging checkpoints reproduce retention state through
    // floating-point round trips; equality must absorb that rounding
    // without absorbing real drift.
    EXPECT_TRUE(BlockEpoch::nearlyEqual(0.0, 1e-7));
    EXPECT_FALSE(BlockEpoch::nearlyEqual(0.0, 1e-5));
    EXPECT_TRUE(BlockEpoch::nearlyEqual(8760.0, 8760.0 * (1.0 + 1e-9)));
    EXPECT_FALSE(BlockEpoch::nearlyEqual(8760.0, 8761.0));

    const BlockEpoch a{5000, 8760.0, 25.0};
    const BlockEpoch jitter{5000, 8760.0 * (1.0 + 1e-12),
                            25.0 * (1.0 - 1e-12)};
    EXPECT_TRUE(a == jitter);
    // P/E cycles are integral: off-by-one is a different epoch.
    EXPECT_FALSE(a == (BlockEpoch{5001, 8760.0, 25.0}));

    // A store/lookup round trip through jittered hours still hits.
    VoltageCache cache;
    cache.store(4, a, -9);
    EXPECT_TRUE(cache.lookup(4, jitter).has_value());
    EXPECT_EQ(cache.stats().stales, 0u);
}

TEST(VoltageCache, RewarmCountsSeparatelyFromStores)
{
    VoltageCache cache;
    const BlockEpoch epoch{100, 10.0, 25.0};
    cache.store(1, epoch, 3);
    cache.rewarm(2, epoch, -4);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.stats().rewarms, 1u);
    EXPECT_EQ(cache.size(), 2u);
    // A rewarmed entry serves lookups exactly like a stored one.
    EXPECT_EQ(cache.lookup(2, epoch).value_or(0), -4);

    // Re-warming an existing entry overwrites it in place.
    cache.rewarm(1, epoch, 7);
    EXPECT_EQ(cache.stats().rewarms, 2u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.lookup(1, epoch).value_or(0), 7);

    util::MetricsRegistry metrics;
    cache.exportMetrics(metrics);
    EXPECT_EQ(metrics.counter("cache.store"), 1u);
    EXPECT_EQ(metrics.counter("cache.rewarm"), 2u);
}

TEST(VoltageCache, EpochOfReadsBlockAge)
{
    nand::BlockAge age;
    age.peCycles = 777;
    age.effRetentionHours = 123.5;
    age.retentionTempC = 55.0;
    const BlockEpoch e = epochOf(age);
    EXPECT_EQ(e.peCycles, 777u);
    EXPECT_EQ(e.retentionHours, 123.5);
    EXPECT_EQ(e.retentionTempC, 55.0);
    EXPECT_TRUE(e == epochOf(age));
}

TEST(VoltageCache, ExportMetricsWritesCacheCounters)
{
    VoltageCache cache;
    const BlockEpoch epoch{10, 5.0, 25.0};
    cache.lookup(0, epoch);          // miss
    cache.store(0, epoch, 3);        // store
    cache.lookup(0, epoch);          // hit
    cache.lookup(0, BlockEpoch{11, 5.0, 25.0}); // stale

    util::MetricsRegistry metrics;
    cache.exportMetrics(metrics);
    EXPECT_EQ(metrics.counter("cache.hit"), 1u);
    EXPECT_EQ(metrics.counter("cache.miss"), 1u);
    EXPECT_EQ(metrics.counter("cache.stale"), 1u);
    EXPECT_EQ(metrics.counter("cache.store"), 1u);
}

class CachedSentinelTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        chip = std::make_unique<nand::Chip>(test::mediumTlcGeometry(),
                                            nand::tlcVoltageParams(), 321);
        CharOptions opt;
        opt.sentinel.ratio = 0.01;
        opt.wordlineStride = 4;
        const FactoryCharacterizer characterizer(opt);
        tables =
            std::make_unique<Characterization>(characterizer.run(*chip));
        overlay = makeOverlay(chip->geometry(), opt.sentinel);

        // Block 1: the shared aged evaluation block. Block 2 is aged
        // per-test by the epoch tests.
        for (int b = 1; b <= 2; ++b) {
            chip->programBlock(b, 5, overlay);
            chip->setPeCycles(b, 5000);
            chip->age(b, 8760.0, 25.0);
        }
    }

    static void
    TearDownTestSuite()
    {
        tables.reset();
        chip.reset();
    }

    static ecc::EccModel
    eccModel()
    {
        return ecc::EccModel(ecc::EccConfig{16384, 145});
    }

    static ReadSessionResult
    readOne(const SentinelPolicy &policy, int block, int wl)
    {
        const auto ecc = eccModel();
        ReadContext ctx(*chip, block, wl, chip->grayCode().msbPage(), ecc,
                        overlay);
        return policy.read(ctx);
    }

    static std::unique_ptr<nand::Chip> chip;
    static std::unique_ptr<Characterization> tables;
    static nand::SentinelOverlay overlay;
};

std::unique_ptr<nand::Chip> CachedSentinelTest::chip;
std::unique_ptr<Characterization> CachedSentinelTest::tables;
nand::SentinelOverlay CachedSentinelTest::overlay;

TEST_F(CachedSentinelTest, NameReflectsAttachedCache)
{
    SentinelPolicy policy(*tables, chip->model().defaultVoltages());
    EXPECT_EQ(policy.name(), "sentinel");
    VoltageCache cache;
    policy.attachCache(&cache);
    EXPECT_EQ(policy.name(), "sentinel+cache");
    EXPECT_EQ(policy.cache(), &cache);
    policy.attachCache(nullptr);
    EXPECT_EQ(policy.name(), "sentinel");
}

TEST_F(CachedSentinelTest, FirstSessionMissesThenSameBlockHits)
{
    SentinelPolicy policy(*tables, chip->model().defaultVoltages());
    VoltageCache cache;
    policy.attachCache(&cache);

    const auto first = readOne(policy, 1, 0);
    ASSERT_TRUE(first.success);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.size(), 1u) << "successful session must store";
    // The aged default read fails on the MSB page, so the uncached
    // session needed the sentinel assist read.
    EXPECT_EQ(first.assistReads, 1);

    // A different wordline of the same block is seeded by the cache:
    // decode at the seeded voltages, no assist read.
    const auto second = readOne(policy, 1, 4);
    ASSERT_TRUE(second.success);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(second.attempts, 1);
    EXPECT_EQ(second.assistReads, 0);
    EXPECT_LT(second.senseOps, first.senseOps);
}

TEST_F(CachedSentinelTest, CacheOffSessionsAreUnchangedByAMissingSeed)
{
    SentinelPolicy plain(*tables, chip->model().defaultVoltages());
    SentinelPolicy cached(*tables, chip->model().defaultVoltages());
    VoltageCache cache;
    cached.attachCache(&cache);

    // A cold cache only adds the (counted) miss; the session itself
    // must be identical to the cacheless policy's.
    const auto a = readOne(plain, 1, 8);
    const auto b = readOne(cached, 1, 8);
    EXPECT_EQ(a.success, b.success);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.assistReads, b.assistReads);
    EXPECT_EQ(a.senseOps, b.senseOps);
    EXPECT_EQ(a.finalVoltages, b.finalVoltages);
    EXPECT_EQ(a.finalErrors, b.finalErrors);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(CachedSentinelTest, PeCycleAndRetentionChangesGoStale)
{
    SentinelPolicy policy(*tables, chip->model().defaultVoltages());
    VoltageCache cache;
    policy.attachCache(&cache);

    ASSERT_TRUE(readOne(policy, 2, 0).success);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.size(), 1u);

    // More P/E cycles: the stored epoch no longer matches.
    chip->setPeCycles(2, 5500);
    ASSERT_TRUE(readOne(policy, 2, 4).success);
    EXPECT_EQ(cache.stats().stales, 1u);

    // That session stored under the new epoch; further retention
    // makes it stale again.
    EXPECT_EQ(cache.size(), 1u);
    chip->age(2, 1000.0, 25.0);
    ASSERT_TRUE(readOne(policy, 2, 8).success);
    EXPECT_EQ(cache.stats().stales, 2u);
}

TEST_F(CachedSentinelTest, CountersSumToSessions)
{
    SentinelPolicy policy(*tables, chip->model().defaultVoltages());
    VoltageCache cache;
    policy.attachCache(&cache);

    util::MetricsRegistry metrics;
    int sessions = 0;
    for (int wl = 0; wl < chip->geometry().wordlinesPerBlock(); wl += 2) {
        const auto s = readOne(policy, 1, wl);
        recordSession(metrics, s, sessionLatencyUs(s, LatencyParams{}));
        ++sessions;
    }
    const auto st = cache.stats();
    EXPECT_EQ(st.hits + st.misses + st.stales,
              static_cast<std::uint64_t>(sessions));
    EXPECT_EQ(metrics.counter("read.sessions"),
              static_cast<std::uint64_t>(sessions));
    // Most sessions after the first should hit the warm cache.
    EXPECT_GE(st.hits, static_cast<std::uint64_t>(sessions) / 2);
}

} // namespace
} // namespace flash::core
