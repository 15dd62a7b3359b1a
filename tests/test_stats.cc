#include <gtest/gtest.h>

#include <vector>

#include "util/logging.hh"
#include "util/stats.hh"

namespace flash::util
{
namespace
{

TEST(RunningStats, EmptyDefaults)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStats, SingleValue)
{
    RunningStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 5.0);
    EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownSample)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of this classic set is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesPooled)
{
    RunningStats a, b, pooled;
    for (int i = 0; i < 50; ++i) {
        const double v = i * 0.37 - 3.0;
        (i % 2 ? a : b).add(v);
        pooled.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), pooled.count());
    EXPECT_NEAR(a.mean(), pooled.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), pooled.variance(), 1e-9);
    EXPECT_EQ(a.min(), pooled.min());
    EXPECT_EQ(a.max(), pooled.max());
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a, empty;
    a.add(1.0);
    a.add(3.0);
    const double mean = a.mean();
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.mean(), mean);

    RunningStats b;
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_EQ(b.mean(), mean);
}

TEST(MeanStddev, Basics)
{
    std::vector<double> v{1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.0);
    EXPECT_NEAR(stddev(v), 1.0, 1e-12);
    EXPECT_EQ(mean({}), 0.0);
    EXPECT_EQ(stddev({1.0}), 0.0);
}

TEST(Pearson, PerfectCorrelation)
{
    std::vector<double> x{1, 2, 3, 4};
    std::vector<double> y{2, 4, 6, 8};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    std::vector<double> yn{-2, -4, -6, -8};
    EXPECT_NEAR(pearson(x, yn), -1.0, 1e-12);
}

TEST(Pearson, Uncorrelated)
{
    std::vector<double> x{1, 2, 3, 4};
    std::vector<double> y{1, -1, 1, -1};
    EXPECT_NEAR(pearson(x, y), 0.0, 0.5);
}

TEST(Pearson, DegenerateInputs)
{
    std::vector<double> x{1, 1, 1};
    std::vector<double> y{1, 2, 3};
    EXPECT_EQ(pearson(x, y), 0.0);
    EXPECT_EQ(pearson({1.0}, {2.0}), 0.0);
}

TEST(Pearson, SizeMismatchFatal)
{
    std::vector<double> x{1, 2};
    std::vector<double> y{1};
    EXPECT_THROW(pearson(x, y), FatalError);
}

} // namespace
} // namespace flash::util
