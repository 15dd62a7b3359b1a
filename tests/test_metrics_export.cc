/**
 * @file
 * The metrics.json acceptance property: the per-policy metrics
 * JSON (counters plus latency-histogram percentiles) is reproduced
 * byte-for-byte at --threads 1/2/4. Exercises exactly the library
 * path bench_table1/bench_fig13 export through
 * (core::collectPolicyMetrics -> writePolicyMetricsJson).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/policy_metrics.hh"
#include "test_support.hh"
#include "util/json.hh"

namespace flash::core
{
namespace
{

class MetricsExportTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        chip = std::make_unique<nand::Chip>(test::mediumTlcGeometry(),
                                            nand::tlcVoltageParams(), 4242);
        CharOptions opt;
        opt.sentinel.ratio = 0.01; // medium geometry: keep ~370 sentinels
        opt.wordlineStride = 4;
        const FactoryCharacterizer characterizer(opt);
        tables = std::make_unique<Characterization>(characterizer.run(*chip));
        overlay = makeOverlay(chip->geometry(), opt.sentinel);

        chip->programBlock(1, 77, overlay);
        chip->setPeCycles(1, 5000);
        chip->age(1, 8760.0, 25.0);
    }

    static void
    TearDownTestSuite()
    {
        tables.reset();
        chip.reset();
    }

    static std::string
    exportAt(int threads)
    {
        const ecc::EccModel ecc(ecc::EccConfig{16384, 130});
        const VendorRetryPolicy vendor(chip->model());
        SentinelPolicy sentinel(*tables, chip->model().defaultVoltages());
        const auto runs = collectPolicyMetrics(
            *chip, 1, {&vendor, &sentinel}, ecc, overlay, {}, -1, 2,
            threads);
        std::ostringstream out;
        writePolicyMetricsJson(out, runs);
        return out.str();
    }

    static std::unique_ptr<nand::Chip> chip;
    static std::unique_ptr<Characterization> tables;
    static nand::SentinelOverlay overlay;
};

std::unique_ptr<nand::Chip> MetricsExportTest::chip;
std::unique_ptr<Characterization> MetricsExportTest::tables;
nand::SentinelOverlay MetricsExportTest::overlay;

TEST_F(MetricsExportTest, JsonBitIdenticalAtThreads124)
{
    const std::string t1 = exportAt(1);
    const std::string t2 = exportAt(2);
    const std::string t4 = exportAt(4);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t4);
}

TEST_F(MetricsExportTest, ExportCarriesCountersAndPercentiles)
{
    const auto doc = util::parseJson(exportAt(2));
    const auto *policies = doc.find("policies");
    ASSERT_NE(policies, nullptr);
    ASSERT_EQ(policies->object.size(), 2u);

    for (const char *name : {"current-flash", "sentinel"}) {
        const auto *p = policies->find(name);
        ASSERT_NE(p, nullptr) << name;
        const auto *counters = p->find("counters");
        ASSERT_NE(counters, nullptr);
        for (const char *c :
             {"read.sessions", "read.attempts", "read.retries",
              "read.sense_ops", "read.assist_reads", "read.failures",
              "read.calib.case1_tune_further",
              "read.calib.case2_tune_back", "read.calib.converged"}) {
            EXPECT_NE(counters->find(c), nullptr)
                << name << " missing " << c;
        }
        const auto *lat = p->find("histograms")->find("read.latency_us");
        ASSERT_NE(lat, nullptr);
        for (const char *q : {"p50", "p90", "p99", "p999"})
            EXPECT_NE(lat->find(q), nullptr);
        EXPECT_GT(lat->find("count")->number, 0.0);
        EXPECT_GE(lat->find("p99")->number, lat->find("p50")->number);
    }

    // The whole point of the sentinel scheme: assist reads happen,
    // and the vendor baseline never issues any.
    const auto *v = policies->find("current-flash")->find("counters");
    const auto *s = policies->find("sentinel")->find("counters");
    EXPECT_EQ(v->find("read.assist_reads")->number, 0.0);
    EXPECT_GT(s->find("read.assist_reads")->number, 0.0);
    EXPECT_LT(s->find("read.retries")->number,
              v->find("read.retries")->number);
}

} // namespace
} // namespace flash::core
