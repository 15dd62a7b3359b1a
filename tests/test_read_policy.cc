#include <gtest/gtest.h>

#include <memory>

#include "core/read_policy.hh"
#include "test_support.hh"
#include "util/logging.hh"

namespace flash::core
{
namespace
{

class ReadPolicyTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        chip = std::make_unique<nand::Chip>(test::mediumTlcGeometry(),
                                            nand::tlcVoltageParams(), 321);
        CharOptions opt;
        opt.sentinel.ratio = 0.01; // medium geometry: keep ~370 sentinels
        opt.wordlineStride = 4;
        const FactoryCharacterizer characterizer(opt);
        tables = std::make_unique<Characterization>(characterizer.run(*chip));
        overlay = makeOverlay(chip->geometry(), opt.sentinel);

        // Age block 1 to the paper's TLC evaluation point.
        chip->programBlock(1, 5, overlay);
        chip->setPeCycles(1, 5000);
        chip->age(1, 8760.0, 25.0);
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

    static std::unique_ptr<nand::Chip> chip;
    static std::unique_ptr<Characterization> tables;
    static nand::SentinelOverlay overlay;
};

std::unique_ptr<nand::Chip> ReadPolicyTest::chip;
std::unique_ptr<Characterization> ReadPolicyTest::tables;
nand::SentinelOverlay ReadPolicyTest::overlay;

TEST_F(ReadPolicyTest, LatencyModelArithmetic)
{
    // Attempts pay overhead + decode, the assist read pays overhead
    // only, every sense is in senseOps, one transfer per session.
    ReadSessionResult s;
    s.attempts = 2;
    s.assistReads = 1;
    s.senseOps = 9;
    LatencyParams p;
    const double expect = 2 * (p.baseUs + p.decodeUs) + p.baseUs
        + 9 * p.senseUs + p.transferUs;
    EXPECT_DOUBLE_EQ(sessionLatencyUs(s, p), expect);
}

TEST_F(ReadPolicyTest, EmptySessionHasZeroLatency)
{
    EXPECT_DOUBLE_EQ(sessionLatencyUs(ReadSessionResult{}, LatencyParams{}),
                     0.0);
}

TEST_F(ReadPolicyTest, TrackingPolicyRejectsBadConfig)
{
    EXPECT_THROW(TrackingPolicy(chip->model(), 0, 0), util::FatalError);
    EXPECT_THROW(TrackingPolicy(chip->model(), 0, -5), util::FatalError);
    EXPECT_THROW(TrackingPolicy(chip->model(), -1), util::FatalError);
}

TEST_F(ReadPolicyTest, TrackingPolicyRejectsOutOfRangeReferenceWordline)
{
    TrackingPolicy policy(chip->model(),
                          chip->geometry().wordlinesPerBlock());
    EXPECT_THROW(policy.track(*chip, 1), util::FatalError);
}

TEST_F(ReadPolicyTest, RetriesAccessor)
{
    ReadSessionResult s;
    EXPECT_EQ(s.retries(), 0);
    s.attempts = 4;
    EXPECT_EQ(s.retries(), 3);
}

TEST_F(ReadPolicyTest, ContextSenseOpsFollowPage)
{
    const auto ecc = eccModel();
    ReadContext lsb(*chip, 1, 0, 0, ecc, overlay);
    EXPECT_EQ(lsb.pageSenseOps(), 1);
    ReadContext csb(*chip, 1, 0, 1, ecc, overlay);
    EXPECT_EQ(csb.pageSenseOps(), 2);
    ReadContext msb(*chip, 1, 0, 2, ecc, overlay);
    EXPECT_EQ(msb.pageSenseOps(), 4);
}

TEST_F(ReadPolicyTest, ContextRejectsBadPage)
{
    const auto ecc = eccModel();
    EXPECT_THROW(ReadContext(*chip, 1, 0, 3, ecc, overlay),
                 util::FatalError);
}

TEST_F(ReadPolicyTest, ContextWithoutOverlayRejectsSentinelSnap)
{
    const auto ecc = eccModel();
    ReadContext ctx(*chip, 1, 0, 0, ecc, std::nullopt);
    EXPECT_THROW(ctx.sentSnap(), util::FatalError);
}

TEST_F(ReadPolicyTest, VendorRetryTableWalksDownTheProfile)
{
    VendorRetryPolicy vendor(chip->model());
    const auto v1 = vendor.retryVoltages(1);
    const auto v3 = vendor.retryVoltages(3);
    const auto defaults = chip->model().defaultVoltages();
    for (int k = 1; k <= 7; ++k) {
        EXPECT_LT(v1[static_cast<std::size_t>(k)],
                  defaults[static_cast<std::size_t>(k)]);
        EXPECT_LT(v3[static_cast<std::size_t>(k)],
                  v1[static_cast<std::size_t>(k)]);
    }
    // Lower programmed boundaries step further (profile-shaped); V1
    // pairs with the erase state, which barely moves, so compare V2.
    EXPECT_LT(v3[2] - defaults[2], v3[7] - defaults[7]);
}

TEST_F(ReadPolicyTest, VendorFailsThenSucceedsWithinBudget)
{
    const auto ecc = eccModel();
    VendorRetryPolicy vendor(chip->model());
    ReadContext ctx(*chip, 1, 2, chip->grayCode().msbPage(), ecc, overlay);
    const auto s = vendor.read(ctx);
    EXPECT_GT(s.attempts, 1); // aged block: first read fails
    EXPECT_EQ(s.assistReads, 0);
    EXPECT_EQ(s.senseOps, s.attempts * 4); // MSB: 4 voltages per attempt
}

TEST_F(ReadPolicyTest, OraclePolicyNeedsAtMostOneRetry)
{
    const auto ecc = eccModel();
    OraclePolicy oracle(chip->model().defaultVoltages());
    for (int wl = 0; wl < 8; ++wl) {
        ReadContext ctx(*chip, 1, wl, chip->grayCode().msbPage(), ecc,
                        overlay);
        const auto s = oracle.read(ctx);
        EXPECT_LE(s.retries(), 1);
        EXPECT_TRUE(s.success) << "wl " << wl;
    }
}

TEST_F(ReadPolicyTest, SentinelPolicyBeatsVendorOnAverage)
{
    const auto ecc = eccModel();
    VendorRetryPolicy vendor(chip->model());
    SentinelPolicy sentinel(*tables, chip->model().defaultVoltages());
    double v_total = 0.0, s_total = 0.0;
    const int msb = chip->grayCode().msbPage();
    for (int wl = 0; wl < chip->geometry().wordlinesPerBlock(); wl += 2) {
        ReadContext vc(*chip, 1, wl, msb, ecc, overlay);
        v_total += vendor.read(vc).retries();
        ReadContext sc(*chip, 1, wl, msb, ecc, overlay);
        s_total += sentinel.read(sc).retries();
    }
    EXPECT_LT(s_total, 0.7 * v_total);
}

TEST_F(ReadPolicyTest, SentinelUsesAssistReadOnNonLsbPages)
{
    const auto ecc = eccModel();
    SentinelPolicy sentinel(*tables, chip->model().defaultVoltages());
    ReadContext msb_ctx(*chip, 1, 0, chip->grayCode().msbPage(), ecc,
                        overlay);
    const auto s_msb = sentinel.read(msb_ctx);
    if (s_msb.attempts > 1)
        EXPECT_EQ(s_msb.assistReads, 1);

    ReadContext lsb_ctx(*chip, 1, 0, 0, ecc, overlay);
    const auto s_lsb = sentinel.read(lsb_ctx);
    EXPECT_EQ(s_lsb.assistReads, 0); // LSB read already sensed V4
}

TEST_F(ReadPolicyTest, SentinelRequiresOverlay)
{
    const auto ecc = eccModel();
    SentinelPolicy sentinel(*tables, chip->model().defaultVoltages());
    ReadContext ctx(*chip, 1, 0, chip->grayCode().msbPage(), ecc,
                    std::nullopt);
    // First read fails on the aged block, then the policy needs the
    // overlay.
    EXPECT_THROW(sentinel.read(ctx), util::FatalError);
}

TEST_F(ReadPolicyTest, TrackingImprovesAfterTrack)
{
    const auto ecc = eccModel();
    TrackingPolicy tracking(chip->model());
    const int msb = chip->grayCode().msbPage();

    // Without track() the tracked set equals the defaults.
    ReadContext before(*chip, 1, 4, msb, ecc, overlay);
    const auto s_before = tracking.read(before);

    tracking.track(*chip, 1);
    EXPECT_NE(tracking.trackedVoltages(),
              chip->model().defaultVoltages());
    ReadContext after(*chip, 1, 4, msb, ecc, overlay);
    const auto s_after = tracking.read(after);
    EXPECT_LE(s_after.retries(), s_before.retries());
}

TEST_F(ReadPolicyTest, PolicyNames)
{
    VendorRetryPolicy vendor(chip->model());
    EXPECT_EQ(vendor.name(), "current-flash");
    SentinelPolicy sentinel(*tables, chip->model().defaultVoltages());
    EXPECT_EQ(sentinel.name(), "sentinel");
    OraclePolicy oracle(chip->model().defaultVoltages());
    EXPECT_EQ(oracle.name(), "oracle");
    TrackingPolicy tracking(chip->model());
    EXPECT_EQ(tracking.name(), "tracking");
}

TEST_F(ReadPolicyTest, BadBudgetsRejected)
{
    EXPECT_THROW(VendorRetryPolicy(chip->model(), 0), util::FatalError);
    EXPECT_THROW(SentinelPolicy(*tables, chip->model().defaultVoltages(),
                                CalibrationParams{}, 0),
                 util::FatalError);
}

} // namespace
} // namespace flash::core
