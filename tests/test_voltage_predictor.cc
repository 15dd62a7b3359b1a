/**
 * @file
 * Online voltage-model tests: the incremental solve against a
 * closed-form batch oracle, permutation/byte determinism of the
 * model state, the confidence gate (min samples, degenerate and
 * rank-deficient chunks, offset clamping), the SentinelPolicy
 * fast path skipping the assist read once a block's chunk is
 * confident, and byte-identity of a model-enabled fleet at
 * threads 1/2/4.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "core/read_policy.hh"
#include "core/voltage_predictor.hh"
#include "ssd/fleet/fleet.hh"
#include "test_support.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace flash::core
{
namespace
{

/** One raw observation the tests feed both implementations. */
struct Obs
{
    int block;
    BlockEpoch epoch;
    int offset;
};

/** The documented feature map (mirrors VoltagePredictor::features). */
void
oracleFeatures(const BlockEpoch &epoch, double (&x)[4])
{
    x[0] = 1.0;
    x[1] = static_cast<double>(epoch.peCycles) / 1000.0;
    x[2] = std::log1p(std::max(0.0, epoch.retentionHours));
    x[3] = (epoch.retentionTempC - 25.0) / 10.0;
}

/**
 * Closed-form batch oracle: accumulate the full normal equations in
 * long double from the raw observations of one chunk and solve
 * (XtX + lambda I) w = Xty by Gaussian elimination, then evaluate at
 * the query epoch. Independent arithmetic path from the incremental
 * predictor — agreement is the property under test.
 */
VoltagePrediction
batchOracle(const std::vector<Obs> &history, int chunk,
            const BlockEpoch &query, const VoltageModelConfig &cfg)
{
    long double a[4][5] = {};
    long double yy = 0.0L;
    std::uint64_t n = 0;
    for (const Obs &o : history) {
        if (o.block / cfg.chunkBlocks != chunk)
            continue;
        double x[4];
        oracleFeatures(o.epoch, x);
        const double y = static_cast<double>(o.offset);
        for (int i = 0; i < 4; ++i) {
            for (int j = 0; j < 4; ++j)
                a[i][j] += static_cast<long double>(x[i] * x[j]);
            a[i][4] += static_cast<long double>(x[i] * y);
        }
        yy += static_cast<long double>(y * y);
        ++n;
    }
    VoltagePrediction out;
    if (n == 0)
        return out;
    for (int i = 0; i < 4; ++i)
        a[i][i] += static_cast<long double>(VoltagePredictor::kRidgeLambda);

    long double xty[4], xtx[4][4];
    for (int i = 0; i < 4; ++i) {
        xty[i] = a[i][4];
        for (int j = 0; j < 4; ++j)
            xtx[i][j] = a[i][j];
        xtx[i][i] -= static_cast<long double>(VoltagePredictor::kRidgeLambda);
    }
    for (int col = 0; col < 4; ++col) {
        int pivot = col;
        for (int r = col + 1; r < 4; ++r) {
            if (std::fabs(static_cast<double>(a[r][col]))
                > std::fabs(static_cast<double>(a[pivot][col])))
                pivot = r;
        }
        if (pivot != col) {
            for (int c = col; c <= 4; ++c)
                std::swap(a[col][c], a[pivot][c]);
        }
        for (int r = col + 1; r < 4; ++r) {
            const long double f = a[r][col] / a[col][col];
            for (int c = col; c <= 4; ++c)
                a[r][c] -= f * a[col][c];
        }
    }
    long double w[4];
    for (int i = 3; i >= 0; --i) {
        long double v = a[i][4];
        for (int j = i + 1; j < 4; ++j)
            v -= a[i][j] * w[j];
        w[i] = v / a[i][i];
    }

    long double sse = yy;
    for (int i = 0; i < 4; ++i) {
        sse -= 2.0L * w[i] * xty[i];
        for (int j = 0; j < 4; ++j)
            sse += w[i] * w[j] * xtx[i][j];
    }
    const long double nn = static_cast<long double>(n);
    const double residual = static_cast<double>(
        std::sqrt(std::max(0.0L, sse) / nn));
    double x[4];
    oracleFeatures(query, x);
    long double y = 0.0L;
    for (int i = 0; i < 4; ++i)
        y += w[i] * static_cast<long double>(x[i]);
    const double clamp = static_cast<double>(VoltagePredictor::kMaxOffsetDac);
    out.predicted = std::clamp(static_cast<double>(y), -clamp, clamp);
    out.sentinelOffset = static_cast<int>(std::lround(out.predicted));
    out.residualStd = residual;
    out.samples = n;
    const double se = residual / std::sqrt(static_cast<double>(n));
    out.confidence = (static_cast<double>(n)
                      / (static_cast<double>(n)
                         + VoltagePredictor::kConfSamples))
        / (1.0 + se / VoltagePredictor::kConfSigmaDac);
    out.confident = n >= VoltagePredictor::kMinSamples
        && out.confidence >= cfg.confidenceThreshold;
    return out;
}

/** Deterministic varied history over two chunks (blocks 0..7). */
std::vector<Obs>
variedHistory()
{
    std::vector<Obs> history;
    for (int i = 0; i < 48; ++i) {
        Obs o;
        o.block = i % 8;
        o.epoch.peCycles = static_cast<std::uint32_t>(1000 + 250 * (i % 7));
        o.epoch.retentionHours = 50.0 + 400.0 * (i % 5);
        o.epoch.retentionTempC = 25.0 + 10.0 * (i % 3);
        double x[4];
        oracleFeatures(o.epoch, x);
        o.offset = static_cast<int>(
                       std::lround(-3.0 - 2.0 * x[1] - 1.5 * x[2]
                                   - 0.8 * x[3]))
            + (i * 7) % 3 - 1;
        history.push_back(o);
    }
    return history;
}

TEST(VoltageModelConfig, ValidateRejectsBadKnobs)
{
    const auto bad = [](auto mutate) {
        VoltageModelConfig cfg;
        mutate(cfg);
        EXPECT_THROW(cfg.validate(), util::FatalError);
    };
    bad([](VoltageModelConfig &c) { c.chunkBlocks = 0; });
    bad([](VoltageModelConfig &c) { c.confidenceThreshold = -0.1; });
    bad([](VoltageModelConfig &c) { c.confidenceThreshold = 1.5; });
    VoltageModelConfig ok;
    EXPECT_NO_THROW(ok.validate());
}

TEST(VoltagePredictor, EmptyChunkPredictsZeroAtZeroConfidence)
{
    const VoltagePredictor model;
    const BlockEpoch epoch{3000, 720.0, 25.0};
    const VoltagePrediction p = model.predict(11, epoch);
    EXPECT_EQ(p.sentinelOffset, 0);
    EXPECT_EQ(p.predicted, 0.0);
    EXPECT_EQ(p.confidence, 0.0);
    EXPECT_EQ(p.samples, 0u);
    EXPECT_FALSE(p.confident);
    EXPECT_EQ(model.confidence(11), 0.0);
    EXPECT_FALSE(model.confidentBlock(11));
    EXPECT_EQ(model.chunks(), 0u);
    EXPECT_EQ(model.meanConfidence(), 0.0);
    EXPECT_EQ(model.confidentFraction(), 0.0);
}

TEST(VoltagePredictor, MatchesClosedFormBatchOracle)
{
    const VoltageModelConfig cfg;
    VoltagePredictor model(cfg);
    const std::vector<Obs> history = variedHistory();
    for (const Obs &o : history)
        model.observe(o.block, o.epoch, o.offset);

    const BlockEpoch queries[] = {{1500, 900.0, 35.0},
                                  {2500, 50.0, 25.0},
                                  {1000, 1650.0, 45.0}};
    for (const BlockEpoch &q : queries) {
        for (int block : {0, 3, 4, 7}) {
            const VoltagePrediction got = model.predict(block, q);
            const VoltagePrediction want =
                batchOracle(history, block / cfg.chunkBlocks, q, cfg);
            EXPECT_EQ(got.samples, want.samples);
            EXPECT_NEAR(got.predicted, want.predicted, 1e-6);
            EXPECT_NEAR(got.residualStd, want.residualStd, 1e-6);
            EXPECT_NEAR(got.confidence, want.confidence, 1e-6);
            EXPECT_EQ(got.confident, want.confident);
            EXPECT_EQ(got.sentinelOffset, want.sentinelOffset);
        }
    }
}

TEST(VoltagePredictor, PermutationInvarianceIsByteExact)
{
    const std::vector<Obs> history = variedHistory();

    VoltagePredictor forward, scrambled;
    for (const Obs &o : history)
        forward.observe(o.block, o.epoch, o.offset);
    // Reverse order, interleaved across chunks: a different summation
    // order over the same multiset. Exact moments make the state —
    // not just the answers — byte-identical.
    std::vector<Obs> mixed(history.rbegin(), history.rend());
    std::stable_partition(mixed.begin(), mixed.end(),
                          [](const Obs &o) { return o.block % 2 == 0; });
    for (const Obs &o : mixed)
        scrambled.observe(o.block, o.epoch, o.offset);

    EXPECT_EQ(forward.stateJson(), scrambled.stateJson());
    const BlockEpoch q{2000, 321.0, 35.0};
    for (int block = 0; block < 8; ++block) {
        const VoltagePrediction a = forward.predict(block, q);
        const VoltagePrediction b = scrambled.predict(block, q);
        EXPECT_EQ(a.predicted, b.predicted);
        EXPECT_EQ(a.confidence, b.confidence);
        EXPECT_EQ(a.residualStd, b.residualStd);
        EXPECT_EQ(a.sentinelOffset, b.sentinelOffset);
    }
}

TEST(VoltagePredictor, CachedSolveIsBitIdenticalToFreshSolve)
{
    VoltagePredictor model;
    for (const Obs &o : variedHistory())
        model.observe(o.block, o.epoch, o.offset);
    const BlockEpoch q{1750, 1234.0, 45.0};
    for (int block = 0; block < 8; ++block) {
        const VoltagePrediction cached = model.predict(block, q);
        const VoltagePrediction fresh = model.predictFresh(block, q);
        EXPECT_EQ(cached.predicted, fresh.predicted);
        EXPECT_EQ(cached.confidence, fresh.confidence);
        EXPECT_EQ(cached.residualStd, fresh.residualStd);
        EXPECT_EQ(cached.sentinelOffset, fresh.sentinelOffset);
        EXPECT_EQ(cached.samples, fresh.samples);
    }
}

TEST(VoltagePredictor, MinSamplesGatesAnOtherwiseConfidentChunk)
{
    // Two zero-residual samples reach confidence 2 / (2 + kConfSamples)
    // = 1/3; a threshold below that leaves kMinSamples as the only gate.
    static_assert(VoltagePredictor::kMinSamples == 3);
    VoltageModelConfig cfg;
    cfg.confidenceThreshold = 0.3;
    VoltagePredictor model(cfg);
    const BlockEpoch epoch{2000, 500.0, 25.0};

    model.observe(0, epoch, -8);
    model.observe(0, epoch, -8);
    VoltagePrediction p = model.predict(0, epoch);
    EXPECT_GE(p.confidence, cfg.confidenceThreshold);
    EXPECT_FALSE(p.confident) << "2 samples < kMinSamples must not gate";
    EXPECT_FALSE(model.confidentBlock(0));

    model.observe(0, epoch, -8);
    p = model.predict(0, epoch);
    EXPECT_TRUE(p.confident);
    EXPECT_TRUE(model.confidentBlock(0));
}

TEST(VoltagePredictor, RankDeficientSingleEpochShrinksTowardMean)
{
    // Every observation shares one epoch: XtX is rank one and only
    // the ridge keeps the solve posed. The fit must stay finite and
    // reproduce the chunk's mean offset at that epoch.
    VoltagePredictor model;
    const BlockEpoch epoch{2000, 500.0, 25.0};
    for (int i = 0; i < 8; ++i)
        model.observe(0, epoch, -10);

    const VoltagePrediction at = model.predict(0, epoch);
    EXPECT_TRUE(std::isfinite(at.predicted));
    EXPECT_NEAR(at.predicted, -10.0, 0.1);
    EXPECT_EQ(at.sentinelOffset, -10);
    EXPECT_LT(at.residualStd, 0.1);
    EXPECT_TRUE(at.confident); // n=8, ~zero residual

    // Off-epoch extrapolation from a rank-deficient fit stays finite
    // and inside the DAC clamp.
    const VoltagePrediction off =
        model.predict(0, BlockEpoch{4000, 4000.0, 55.0});
    EXPECT_TRUE(std::isfinite(off.predicted));
    EXPECT_LE(std::abs(off.predicted), 192.0);
}

TEST(VoltagePredictor, PredictionsClampToMaxOffset)
{
    VoltagePredictor model;
    const BlockEpoch epoch{2000, 500.0, 25.0};
    for (int i = 0; i < 6; ++i) {
        model.observe(0, epoch, 500);    // chunk 0, way past the clamp
        model.observe(100, epoch, -500); // chunk 25
    }
    const VoltagePrediction hi = model.predict(0, epoch);
    EXPECT_EQ(hi.predicted, 192.0);
    EXPECT_EQ(hi.sentinelOffset, 192);
    const VoltagePrediction lo = model.predict(100, epoch);
    EXPECT_EQ(lo.predicted, -192.0);
    EXPECT_EQ(lo.sentinelOffset, -192);
}

TEST(VoltagePredictor, MetricsSummariesAndFootprint)
{
    VoltagePredictor model;
    const std::size_t empty_bytes = model.footprintBytes();
    EXPECT_GT(empty_bytes, 0u);

    const std::vector<Obs> history = variedHistory();
    for (const Obs &o : history)
        model.observe(o.block, o.epoch, o.offset);
    EXPECT_EQ(model.chunks(), 2u); // blocks 0..7, chunkBlocks=4
    EXPECT_GT(model.footprintBytes(), empty_bytes);

    const BlockEpoch q{1500, 900.0, 35.0};
    (void)model.predict(0, q);
    (void)model.predict(4, q);
    model.noteFastAttempt();
    model.noteFastHit();
    model.noteLowConfidence();

    util::MetricsRegistry metrics;
    model.exportMetrics(metrics);
    EXPECT_EQ(metrics.counter("model.observe"), history.size());
    EXPECT_EQ(metrics.counter("model.predict"), 2u);
    EXPECT_EQ(metrics.counter("model.chunks"), 2u);
    EXPECT_EQ(metrics.counter("model.fast_attempt"), 1u);
    EXPECT_EQ(metrics.counter("model.fast_hit"), 1u);
    EXPECT_EQ(metrics.counter("model.fast_miss"), 0u);
    EXPECT_EQ(metrics.counter("model.low_confidence"), 1u);

    const double mean = model.meanConfidence();
    EXPECT_GT(mean, 0.0);
    EXPECT_LT(mean, 1.0);
    const double frac = model.confidentFraction();
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0);
}

/** Real-chip fixture mirroring the voltage-cache policy tests. */
class ModelSentinelTest : public ::testing::Test
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

    static ReadSessionResult
    readOne(const SentinelPolicy &policy, int block, int wl)
    {
        const ecc::EccModel ecc(ecc::EccConfig{16384, 145});
        ReadContext ctx(*chip, block, wl, chip->grayCode().msbPage(), ecc,
                        overlay);
        return policy.read(ctx);
    }

    static std::unique_ptr<nand::Chip> chip;
    static std::unique_ptr<Characterization> tables;
    static nand::SentinelOverlay overlay;
};

std::unique_ptr<nand::Chip> ModelSentinelTest::chip;
std::unique_ptr<Characterization> ModelSentinelTest::tables;
nand::SentinelOverlay ModelSentinelTest::overlay;

TEST_F(ModelSentinelTest, NameReflectsAttachedModel)
{
    SentinelPolicy policy(*tables, chip->model().defaultVoltages());
    EXPECT_EQ(policy.name(), "sentinel");
    VoltagePredictor model;
    policy.attachModel(&model);
    EXPECT_EQ(policy.name(), "sentinel+model");
    EXPECT_EQ(policy.model(), &model);
    policy.attachModel(nullptr);
    EXPECT_EQ(policy.name(), "sentinel");
}

TEST_F(ModelSentinelTest, ConfidentPredictionSkipsTheAssistRead)
{
    SentinelPolicy policy(*tables, chip->model().defaultVoltages());
    VoltageModelConfig cfg;
    cfg.confidenceThreshold = 0.3; // gate opens within a few sessions
    VoltagePredictor model(cfg);
    policy.attachModel(&model);

    // Train: unconfident sessions take the assist path, and each
    // successful inference feeds the model one observation.
    int trained = 0;
    int wl = 0;
    const int wl_count = chip->geometry().wordlinesPerBlock();
    for (; wl < wl_count && !model.confidentBlock(1); wl += 4) {
        const auto s = readOne(policy, 1, wl);
        ASSERT_TRUE(s.success);
        EXPECT_EQ(s.assistReads, 1) << "untrained session needs assist";
        ++trained;
    }
    ASSERT_TRUE(model.confidentBlock(1))
        << "model never reached confidence after " << trained
        << " sessions";
    EXPECT_EQ(model.stats().observes,
              static_cast<std::uint64_t>(trained));

    // Confident: the next session reads straight at the predicted
    // offset — one attempt, no assist sense, fewer sense ops.
    const std::uint64_t observes_before = model.stats().observes;
    const auto fast = readOne(policy, 1, wl);
    ASSERT_TRUE(fast.success);
    EXPECT_EQ(fast.attempts, 1);
    EXPECT_EQ(fast.assistReads, 0);
    EXPECT_EQ(model.stats().fastAttempts, 1u);
    EXPECT_EQ(model.stats().fastHits, 1u);
    EXPECT_EQ(model.stats().fastMisses, 0u);
    // A fast hit skips inference, so it must not feed the model its
    // own prediction back as a fresh observation.
    EXPECT_EQ(model.stats().observes, observes_before);
}

TEST(VoltagePredictorFleet, ModelFleetIsByteIdenticalAcrossThreads)
{
    // Open arrivals leave idle windows, so the scrubbers actually
    // probe and the per-device models learn; byte-identity of every
    // artifact (device lines, rollup, health lines with the model
    // fields) must survive any worker count.
    ssd::fleet::FleetConfig cfg;
    cfg.devices = 6;
    cfg.seed = 11;
    cfg.requests = 40;
    cfg.timing.readBaseUs = 5.0;
    cfg.timing.decodeUs = 2.0;
    cfg.healthIntervalUs = 500.0;
    cfg.scrub.intervalUs = 50.0;
    cfg.scrub.probeBudget = 8;
    cfg.model = true;
    cfg.modelConfig.confidenceThreshold = 0.3;
    ssd::fleet::CohortSpec cohort;
    cohort.name = "open";
    cohort.mode = ssd::ArrivalMode::OpenFixed;
    cohort.ratePerQueueUs = 0.005; // 200 us between arrivals: idle gaps
    cfg.cohorts = {cohort};

    ssd::fleet::FixedFleetEnv env(ssd::FixedReadCost(5, 3, 1),
                                  ssd::FixedReadCost(1));
    const auto artifacts = [&](int threads) {
        const ssd::fleet::FleetResult fleet =
            ssd::fleet::runFleet(cfg, env, threads);
        std::ostringstream os;
        ssd::fleet::writeFleetJsonLines(fleet, os);
        os << fleet.rollup.toJson() << '\n';
        ssd::fleet::writeHealthLines(fleet, os);
        return std::make_pair(os.str(),
                              fleet.rollup.counter("fleet.model.observe"));
    };
    const auto t1 = artifacts(1);
    const auto t2 = artifacts(2);
    const auto t4 = artifacts(4);
    EXPECT_GT(t1.second, 0u) << "scrub probes must train the models";
    EXPECT_EQ(t1.first, t2.first);
    EXPECT_EQ(t1.first, t4.first);
}

} // namespace
} // namespace flash::core
