/**
 * @file
 * Determinism regression tests for the parallel evaluators: every
 * sweep must produce bit-identical results at any thread count, and
 * read sessions must not perturb each other (the property the old
 * global read-sequence counter violated).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/evaluator.hh"
#include "ssd/read_cost.hh"
#include "test_support.hh"

namespace flash::core
{
namespace
{

class ParallelEvaluatorTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        chip = std::make_unique<nand::Chip>(test::mediumQlcGeometry(),
                                            nand::qlcVoltageParams(), 888);
        CharOptions opt;
        opt.sentinel.ratio = 0.01; // medium geometry: keep ~370 sentinels
        opt.wordlineStride = 4;
        const FactoryCharacterizer characterizer(opt);
        tables = std::make_unique<Characterization>(characterizer.run(*chip));
        overlay = makeOverlay(chip->geometry(), opt.sentinel);

        prepareEvalBlock(*chip);
    }

    /** Program and age block 1, the evaluated block. */
    static void
    prepareEvalBlock(nand::Chip &c)
    {
        c.programBlock(1, 9, overlay);
        c.setPeCycles(1, 3000);
        c.age(1, 8760.0, 25.0);
    }

    /** A chip in the fixture chip's block-1 state with an empty memo. */
    static std::unique_ptr<nand::Chip>
    coldChip()
    {
        auto c = std::make_unique<nand::Chip>(test::mediumQlcGeometry(),
                                              nand::qlcVoltageParams(), 888);
        prepareEvalBlock(*c);
        return c;
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
        return ecc::EccModel(ecc::EccConfig{16384, 120});
    }

    static std::unique_ptr<nand::Chip> chip;
    static std::unique_ptr<Characterization> tables;
    static nand::SentinelOverlay overlay;
};

std::unique_ptr<nand::Chip> ParallelEvaluatorTest::chip;
std::unique_ptr<Characterization> ParallelEvaluatorTest::tables;
nand::SentinelOverlay ParallelEvaluatorTest::overlay;

void
expectSameStats(const PolicyBlockStats &a, const PolicyBlockStats &b)
{
    EXPECT_EQ(a.sessions, b.sessions);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.retriesPerWordline, b.retriesPerWordline);
    // Bitwise equality, not near-equality: the reduction order is
    // fixed, so the floating-point sums must match exactly.
    EXPECT_EQ(a.retries.mean(), b.retries.mean());
    EXPECT_EQ(a.senseOps.mean(), b.senseOps.mean());
    EXPECT_EQ(a.latencyUs.mean(), b.latencyUs.mean());
    EXPECT_EQ(a.latencyUs.stddev(), b.latencyUs.stddev());
}

TEST_F(ParallelEvaluatorTest, EvaluateBlockRepeatsExactly)
{
    const auto ecc = eccModel();
    const SentinelPolicy policy(*tables, chip->model().defaultVoltages());
    const auto first = evaluateBlock(*chip, 1, policy, ecc, overlay,
                                     LatencyParams{});
    const auto second = evaluateBlock(*chip, 1, policy, ecc, overlay,
                                      LatencyParams{});
    expectSameStats(first, second);
}

TEST_F(ParallelEvaluatorTest, EvaluateBlockBitIdenticalAcrossThreadCounts)
{
    const auto ecc = eccModel();
    const SentinelPolicy policy(*tables, chip->model().defaultVoltages());
    const auto serial = evaluateBlock(*chip, 1, policy, ecc, overlay,
                                      LatencyParams{}, -1, 1, 1);
    for (int threads : {2, 4}) {
        const auto parallel = evaluateBlock(*chip, 1, policy, ecc, overlay,
                                            LatencyParams{}, -1, 1, threads);
        expectSameStats(serial, parallel);
    }
}

TEST_F(ParallelEvaluatorTest, WarmMemoMatchesColdChip)
{
    const auto ecc = eccModel();
    const VendorRetryPolicy vendor(chip->model());
    const SentinelPolicy sentinel(*tables, chip->model().defaultVoltages());
    const auto run = [&](const nand::Chip &c, const ReadPolicy &policy,
                         int threads) {
        return evaluateBlock(c, 1, policy, ecc, overlay, LatencyParams{}, -1,
                             1, threads);
    };
    // Each arm alone on a cold chip senses every snapshot itself.
    const auto cold_vendor = run(*coldChip(), vendor, 1);
    const auto cold_sentinel = run(*coldChip(), sentinel, 1);

    for (int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        // The vendor arm warms the memo; the sentinel arm then shares
        // its data snapshots, and a second round shares everything.
        const auto warm = coldChip();
        for (int round = 0; round < 2; ++round) {
            const auto v = run(*warm, vendor, threads);
            EXPECT_GT(warm->senseMemoBytes(), 0u);
            const auto s = run(*warm, sentinel, threads);
            expectSameStats(v, cold_vendor);
            expectSameStats(s, cold_sentinel);
            EXPECT_EQ(v.metrics.toJson(), cold_vendor.metrics.toJson());
            EXPECT_EQ(s.metrics.toJson(), cold_sentinel.metrics.toJson());
        }
    }
}

TEST_F(ParallelEvaluatorTest, AccuracySweepBitIdenticalAcrossThreadCounts)
{
    const auto serial =
        evaluateBlockAccuracy(*chip, 1, *tables, overlay, {}, 4, 1);
    const auto parallel =
        evaluateBlockAccuracy(*chip, 1, *tables, overlay, {}, 4, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].dRate, parallel[i].dRate);
        EXPECT_EQ(serial[i].calibSteps, parallel[i].calibSteps);
        ASSERT_EQ(serial[i].boundaries.size(), parallel[i].boundaries.size());
        for (std::size_t k = 1; k < serial[i].boundaries.size(); ++k) {
            const auto &s = serial[i].boundaries[k];
            const auto &p = parallel[i].boundaries[k];
            EXPECT_EQ(s.offInferred, p.offInferred);
            EXPECT_EQ(s.offCalibrated, p.offCalibrated);
            EXPECT_EQ(s.errInferred, p.errInferred);
            EXPECT_EQ(s.errCalibrated, p.errCalibrated);
        }
    }
}

TEST_F(ParallelEvaluatorTest, MeasureReadCostBitIdenticalAcrossThreadCounts)
{
    const auto ecc = eccModel();
    const VendorRetryPolicy vendor(chip->model());
    auto serial = ssd::measureReadCost(*chip, 1, vendor, ecc, overlay, -1,
                                       2, 1);
    auto parallel = ssd::measureReadCost(*chip, 1, vendor, ecc, overlay, -1,
                                         2, 4);
    EXPECT_EQ(serial.meanRetries(), parallel.meanRetries());
    EXPECT_EQ(serial.meanSenseOps(), parallel.meanSenseOps());
}

TEST_F(ParallelEvaluatorTest, MeasureReadCostSamplesAreEvaluateBlockSessions)
{
    // One sweep serves both: page -1 is the MSB page for each, and
    // every cost sample is its wordline's evaluated session.
    const auto ecc = eccModel();
    const VendorRetryPolicy vendor(chip->model());
    const SentinelPolicy sentinel(*tables, chip->model().defaultVoltages());
    for (const ReadPolicy *policy :
         {static_cast<const ReadPolicy *>(&vendor),
          static_cast<const ReadPolicy *>(&sentinel)}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE(policy->name() + " threads "
                         + std::to_string(threads));
            const auto cost = ssd::measureReadCost(
                *chip, 1, *policy, ecc, overlay, -1, 4, threads, 3);
            const auto stats = evaluateBlock(*chip, 1, *policy, ecc, overlay,
                                             LatencyParams{}, -1, 4,
                                             threads, 3);
            const auto &samples = cost.samples();
            const auto &sessions = stats.sessionResults;
            ASSERT_EQ(samples.size(), sessions.size());
            ASSERT_EQ(samples.size(), stats.retriesPerWordline.size());
            for (std::size_t i = 0; i < samples.size(); ++i) {
                EXPECT_EQ(samples[i].attempts, sessions[i].attempts) << i;
                EXPECT_EQ(samples[i].senseOps, sessions[i].senseOps) << i;
                EXPECT_EQ(samples[i].assistReads, sessions[i].assistReads)
                    << i;
                EXPECT_EQ(samples[i].attempts - 1,
                          stats.retriesPerWordline[i])
                    << i;
            }
        }
    }
}

TEST_F(ParallelEvaluatorTest, CharacterizationBitIdenticalAcrossThreadCounts)
{
    // Characterization mutates its block, so each run gets its own
    // chip; same seed means same cells.
    auto make_tables = [&](int threads) {
        nand::Chip c(test::mediumQlcGeometry(), nand::qlcVoltageParams(),
                     321);
        CharOptions opt;
        opt.sentinel.ratio = 0.01;
        opt.wordlineStride = 8;
        opt.threads = threads;
        return FactoryCharacterizer(opt).run(c);
    };
    const auto serial = make_tables(1);
    const auto parallel = make_tables(4);
    EXPECT_EQ(serial.dSamples, parallel.dSamples);
    EXPECT_EQ(serial.voptSamples, parallel.voptSamples);
    EXPECT_EQ(serial.dToVopt.coeffs(), parallel.dToVopt.coeffs());
    EXPECT_EQ(serial.dFitRmse, parallel.dFitRmse);
    ASSERT_EQ(serial.crossVoltage.size(), parallel.crossVoltage.size());
    for (std::size_t k = 1; k < serial.crossVoltage.size(); ++k) {
        EXPECT_EQ(serial.crossVoltage[k].slope,
                  parallel.crossVoltage[k].slope);
        EXPECT_EQ(serial.crossVoltage[k].intercept,
                  parallel.crossVoltage[k].intercept);
    }
}

TEST_F(ParallelEvaluatorTest, SessionsDoNotPerturbEachOther)
{
    // With the old global read-sequence counter, reading wordline 1
    // first shifted every seed wordline 2 saw. Session noise is now
    // keyed by (stream, block, wordline, read counter), so a session
    // is unaffected by whatever ran before it.
    const auto ecc = eccModel();
    const VendorRetryPolicy vendor(chip->model());
    const nand::ReadClock clock(7);
    const int page = chip->grayCode().msbPage();

    ReadContext lone(*chip, 1, 2, page, ecc, overlay, clock);
    const auto expected = vendor.read(lone);

    ReadContext first(*chip, 1, 1, page, ecc, overlay, clock);
    (void)vendor.read(first);
    ReadContext second(*chip, 1, 2, page, ecc, overlay, clock);
    const auto actual = vendor.read(second);

    EXPECT_EQ(actual.success, expected.success);
    EXPECT_EQ(actual.attempts, expected.attempts);
    EXPECT_EQ(actual.senseOps, expected.senseOps);
    EXPECT_EQ(actual.finalErrors, expected.finalErrors);
    EXPECT_EQ(actual.finalVoltages, expected.finalVoltages);
}

TEST_F(ParallelEvaluatorTest, DistinctStreamsRedrawNoise)
{
    const auto ecc = eccModel();
    const int page = chip->grayCode().msbPage();
    const auto defaults = chip->model().defaultVoltages();

    ReadContext a(*chip, 1, 0, page, ecc, overlay, nand::ReadClock(0));
    ReadContext b(*chip, 1, 0, page, ecc, overlay, nand::ReadClock(1));
    // Same aged wordline, different noise stream: the error counts of
    // a 32k-cell page at the default voltages almost surely differ.
    EXPECT_NE(a.pageErrors(defaults), b.pageErrors(defaults));
}

} // namespace
} // namespace flash::core
