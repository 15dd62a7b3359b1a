#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/metrics.hh"
#include "util/rng.hh"

namespace flash
{
namespace
{

using util::LatencyHistogram;
using util::MetricsRegistry;

/** Sort-based oracle: nearest-rank percentile of the raw sample. */
double
oraclePercentile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(n))));
    return values[rank - 1];
}

std::vector<double>
randomLatencies(std::uint64_t seed, std::size_t n)
{
    util::Rng rng(seed);
    std::vector<double> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Heavy-tailed mix covering several orders of magnitude, the
        // shape SSD latencies actually have.
        const double base = rng.uniform(0.0, 100.0);
        const double tail = rng.bernoulli(0.05)
            ? rng.uniform(1e3, 1e6)
            : 0.0;
        v.push_back(base + tail);
    }
    return v;
}

TEST(LatencyHistogram, BinEdgesPartitionTheAxis)
{
    // Every bin's hi is the next bin's lo; binOf is consistent with
    // the edges.
    for (int idx = 0; idx < 300; ++idx) {
        EXPECT_DOUBLE_EQ(LatencyHistogram::binHi(idx),
                         LatencyHistogram::binLo(idx + 1));
        const double lo = LatencyHistogram::binLo(idx);
        EXPECT_EQ(LatencyHistogram::binOf(lo), idx) << "lo of bin " << idx;
    }
    EXPECT_EQ(LatencyHistogram::binOf(0.0), 0);
    EXPECT_EQ(LatencyHistogram::binOf(0.999), 0);
    EXPECT_EQ(LatencyHistogram::binOf(-5.0), 0);
}

TEST(LatencyHistogram, PercentileTracksSortOracle)
{
    // Quantization error of a percentile is bounded by one sub-bin:
    // 1/kSubBins relative, plus the sub-unit bin 0 for tiny values.
    const auto values = randomLatencies(0xabcdef, 5000);
    LatencyHistogram h;
    for (double v : values)
        h.add(v);

    for (double q : {0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        const double expect = oraclePercentile(values, q);
        const double got = h.percentile(q);
        const double tol =
            expect * (2.0 / LatencyHistogram::kSubBins) + 1.0;
        EXPECT_NEAR(got, expect, tol) << "q = " << q;
    }
}

TEST(LatencyHistogram, PercentileMonotoneInQuantile)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const auto values = randomLatencies(seed, 2000);
        LatencyHistogram h;
        for (double v : values)
            h.add(v);
        double prev = -1.0;
        for (int i = 0; i <= 100; ++i) {
            const double p = h.percentile(i / 100.0);
            EXPECT_GE(p, prev) << "q = " << i / 100.0;
            prev = p;
        }
        EXPECT_LE(h.percentile(1.0), h.max());
        EXPECT_GE(h.percentile(0.0), h.min());
    }
}

TEST(LatencyHistogram, MergeEqualsSinglePass)
{
    // Randomized: split one sample into k shards in every way; the
    // merged histogram must answer every integer-count query (count,
    // min, max, every percentile) exactly like the single-pass fill.
    for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
        const auto values = randomLatencies(seed, 1000);
        util::Rng rng(seed ^ 0x5eed);
        const int shards = 2 + static_cast<int>(rng.uniformInt(6));

        LatencyHistogram single;
        std::vector<LatencyHistogram> parts(
            static_cast<std::size_t>(shards));
        for (std::size_t i = 0; i < values.size(); ++i) {
            single.add(values[i]);
            parts[rng.uniformInt(static_cast<std::uint64_t>(shards))].add(
                values[i]);
        }
        LatencyHistogram merged;
        for (const auto &p : parts)
            merged.merge(p);

        EXPECT_EQ(merged.count(), single.count());
        EXPECT_DOUBLE_EQ(merged.min(), single.min());
        EXPECT_DOUBLE_EQ(merged.max(), single.max());
        // Sums are ExactSum-backed: bit-identical however sharded.
        EXPECT_EQ(merged.sum(), single.sum());
        for (int i = 0; i <= 1000; ++i) {
            const double q = i / 1000.0;
            EXPECT_DOUBLE_EQ(merged.percentile(q), single.percentile(q))
                << "q = " << q;
        }
    }
}

TEST(LatencyHistogram, PermutedShardMergeIsByteIdentical)
{
    // The fleet-rollup property: merging K per-shard histograms in
    // ANY permutation exports the same bytes as the single-pass fill
    // — including the floating-point sum, which ExactSum makes a pure
    // function of the observation multiset.
    for (std::uint64_t seed : {0x1ull, 0x2ull, 0x3ull, 0x4ull, 0x5ull}) {
        util::Rng rng(seed);
        const std::size_t n = 500 + rng.uniformInt(2000);
        const auto values = randomLatencies(seed ^ 0xf1ee7, n);
        const int shards = 1 + static_cast<int>(rng.uniformInt(16));

        LatencyHistogram single;
        std::vector<LatencyHistogram> parts(
            static_cast<std::size_t>(shards));
        for (double v : values) {
            single.add(v);
            parts[rng.uniformInt(static_cast<std::uint64_t>(shards))]
                .add(v);
        }

        std::ostringstream singleJson;
        single.writeJson(singleJson);

        // Merge the shards in several random permutations; every
        // ordering must serialize to the same bytes.
        std::vector<std::size_t> order(parts.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        for (int perm = 0; perm < 8; ++perm) {
            for (std::size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng.uniformInt(i)]);
            LatencyHistogram merged;
            for (std::size_t i : order)
                merged.merge(parts[i]);
            std::ostringstream mergedJson;
            merged.writeJson(mergedJson);
            EXPECT_EQ(mergedJson.str(), singleJson.str())
                << "seed " << seed << " perm " << perm;
        }

        // Sort-oracle check on the single-pass percentiles, so the
        // byte-equality above is anchored to a correct baseline.
        std::vector<double> sample(values.begin(), values.end());
        for (double q : {0.5, 0.9, 0.99, 0.999}) {
            const double expect = oraclePercentile(sample, q);
            const double tol =
                expect * (2.0 / LatencyHistogram::kSubBins) + 1.0;
            EXPECT_NEAR(single.percentile(q), expect, tol)
                << "seed " << seed << " q " << q;
        }
    }
}

TEST(MetricsRegistry, PermutedRegistryMergeIsByteIdentical)
{
    // Satellite of the fleet work: K per-device registries merged in
    // any permutation (plain or prefixed) export byte-for-byte the
    // JSON of the registry that observed everything directly.
    for (std::uint64_t seed : {7ull, 8ull, 9ull}) {
        util::Rng rng(seed);
        const int devices = 2 + static_cast<int>(rng.uniformInt(12));
        const std::vector<std::string> counters = {"ssd.read.page_ops",
                                                   "ssd.read.attempts"};
        const std::vector<std::string> hists = {
            "ssd.read.request_latency_us", "frontend.queue_wait_us"};

        MetricsRegistry single;
        std::vector<MetricsRegistry> shards(
            static_cast<std::size_t>(devices));
        for (int i = 0; i < 4000; ++i) {
            const auto d = rng.uniformInt(
                static_cast<std::uint64_t>(devices));
            const auto &c = counters[rng.uniformInt(counters.size())];
            const std::uint64_t delta = rng.uniformInt(7);
            single.add(c, delta);
            shards[d].add(c, delta);
            const auto &h = hists[rng.uniformInt(hists.size())];
            const double v = rng.uniform(0.0, 1e4);
            single.observe(h, v);
            shards[d].observe(h, v);
        }

        std::vector<std::size_t> order(shards.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        for (int perm = 0; perm < 6; ++perm) {
            for (std::size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng.uniformInt(i)]);
            MetricsRegistry merged;
            MetricsRegistry prefixed;
            for (std::size_t i : order) {
                merged.merge(shards[i]);
                prefixed.mergePrefixed(shards[i], "fleet.");
            }
            EXPECT_EQ(merged.toJson(), single.toJson())
                << "seed " << seed << " perm " << perm;

            MetricsRegistry singlePrefixed;
            singlePrefixed.mergePrefixed(single, "fleet.");
            EXPECT_EQ(prefixed.toJson(), singlePrefixed.toJson())
                << "seed " << seed << " perm " << perm;
        }
    }
}

TEST(LatencyHistogram, BinsJsonRoundTrip)
{
    const auto values = randomLatencies(0xb145, 3000);
    LatencyHistogram h;
    for (double v : values)
        h.add(v);

    std::ostringstream os;
    h.writeBinsJson(os);
    const auto doc = util::parseJson(os.str());
    const LatencyHistogram back = LatencyHistogram::fromBinsJson(doc);

    EXPECT_EQ(back.count(), h.count());
    EXPECT_DOUBLE_EQ(back.min(), h.min());
    EXPECT_DOUBLE_EQ(back.max(), h.max());
    EXPECT_EQ(back.bins(), h.bins());
    // The serialized sum is the exactly-rounded double, so the
    // round-tripped sum equals it bit-for-bit.
    EXPECT_EQ(back.sum(), h.sum());
    for (int i = 0; i <= 100; ++i) {
        const double q = i / 100.0;
        EXPECT_DOUBLE_EQ(back.percentile(q), h.percentile(q));
    }

    // Re-serializing the rebuilt histogram reproduces the bytes.
    std::ostringstream os2;
    back.writeBinsJson(os2);
    EXPECT_EQ(os2.str(), os.str());
}

TEST(LatencyHistogram, TailMassPartitionsAcrossShards)
{
    // countFromBin at the rollup's percentile bin must partition
    // exactly across shards — the fleet tail-attribution invariant.
    const auto values = randomLatencies(0x7a11, 4000);
    util::Rng rng(0x7a11);
    LatencyHistogram fleet;
    std::vector<LatencyHistogram> devices(8);
    for (double v : values) {
        fleet.add(v);
        devices[rng.uniformInt(devices.size())].add(v);
    }
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const int bin = fleet.percentileBin(q);
        ASSERT_GE(bin, 0);
        std::uint64_t total = 0;
        for (const auto &d : devices)
            total += d.countFromBin(bin);
        EXPECT_EQ(total, fleet.countFromBin(bin)) << "q = " << q;
    }
}

TEST(LatencyHistogram, EmptyAndSingleton)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    h.add(42.0);
    EXPECT_EQ(h.count(), 1u);
    // Percentiles of a singleton clamp into [min, max] = [42, 42].
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 42.0);

    LatencyHistogram other;
    other.merge(h); // merge into empty
    EXPECT_EQ(other.count(), 1u);
    EXPECT_DOUBLE_EQ(other.percentile(0.5), 42.0);
}

TEST(MetricsRegistry, CountersSumAcrossShards)
{
    // Randomized: counter increments distributed over shards merge to
    // the single-registry totals.
    util::Rng rng(77);
    const std::vector<std::string> names = {"a", "b.c", "b.d"};
    MetricsRegistry single;
    std::vector<MetricsRegistry> shards(4);
    for (int i = 0; i < 10000; ++i) {
        const auto &name = names[rng.uniformInt(names.size())];
        const std::uint64_t delta = rng.uniformInt(5);
        single.add(name, delta);
        shards[rng.uniformInt(shards.size())].add(name, delta);
    }
    MetricsRegistry merged;
    for (const auto &s : shards)
        merged.merge(s);
    for (const auto &name : names)
        EXPECT_EQ(merged.counter(name), single.counter(name)) << name;
    EXPECT_EQ(merged.toJson(), single.toJson());
}

TEST(MetricsRegistry, JsonRoundTripsThroughParser)
{
    MetricsRegistry m;
    m.add("read.sessions", 3);
    m.add("read.attempts", 7);
    m.observe("read.latency_us", 55.0);
    m.observe("read.latency_us", 120.0);
    m.observe("read.latency_us", 48.5);

    const auto doc = util::parseJson(m.toJson());
    ASSERT_TRUE(doc.isObject());
    const auto *counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("read.sessions")->number, 3.0);
    EXPECT_EQ(counters->find("read.attempts")->number, 7.0);
    const auto *hist = doc.find("histograms")->find("read.latency_us");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->find("count")->number, 3.0);
    EXPECT_DOUBLE_EQ(hist->find("min")->number, 48.5);
    EXPECT_DOUBLE_EQ(hist->find("max")->number, 120.0);
    EXPECT_DOUBLE_EQ(hist->find("sum")->number, 223.5);
    // p50 lands in the bin containing 55 (relative error < 1/64).
    EXPECT_NEAR(hist->find("p50")->number, 55.0, 55.0 / 32.0);
}

TEST(MetricsRegistry, ExportIsNameOrderedAndStable)
{
    MetricsRegistry a, b;
    a.add("z", 1);
    a.add("a", 2);
    b.add("a", 2);
    b.add("z", 1);
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_LT(a.toJson().find("\"a\""), a.toJson().find("\"z\""));
}

TEST(MetricHandle, NeverUpdatedHandleAddsNothing)
{
    MetricsRegistry m;
    const std::string empty = m.toJson();
    {
        util::CounterHandle c(m, "ssd.read.page_ops");
        util::HistogramHandle h(m, "ssd.read.latency_us");
    }
    EXPECT_EQ(m.toJson(), empty);
    EXPECT_TRUE(m.counters().empty());
    EXPECT_TRUE(m.histograms().empty());
}

TEST(MetricHandle, AddZeroMaterializesTheCounter)
{
    MetricsRegistry by_name, by_handle;
    by_name.add("ssd.read.assist_reads", 0);
    util::CounterHandle c(by_handle, "ssd.read.assist_reads");
    c.add(0);
    EXPECT_EQ(by_handle.counters().count("ssd.read.assist_reads"), 1u);
    EXPECT_EQ(by_handle.toJson(), by_name.toJson());
}

TEST(MetricHandle, InterleavedWithNamesMatchesNamesAlone)
{
    // Handles and names share one registry: names insert around the
    // bound slots, which must stay valid and keep accumulating.
    const std::vector<std::string> counters = {"c.a", "c.m", "c.z"};
    const std::vector<std::string> hists = {"h.b", "h.n", "h.y"};
    MetricsRegistry names_only, mixed;
    std::vector<util::CounterHandle> ch;
    std::vector<util::HistogramHandle> hh;
    for (const auto &n : counters)
        ch.emplace_back(mixed, n.c_str());
    for (const auto &n : hists)
        hh.emplace_back(mixed, n.c_str());

    util::Rng rng(2024);
    for (int i = 0; i < 5000; ++i) {
        const std::size_t k = rng.uniformInt(3);
        const bool via_handle = rng.bernoulli(0.5);
        if (rng.bernoulli(0.5)) {
            const std::uint64_t delta = rng.uniformInt(4);
            names_only.add(counters[k], delta);
            if (via_handle)
                ch[k].add(delta);
            else
                mixed.add(counters[k], delta);
        } else {
            const double v = rng.uniform(0.0, 5000.0);
            names_only.observe(hists[k], v);
            if (via_handle)
                hh[k].observe(v);
            else
                mixed.observe(hists[k], v);
        }
        // Unrelated names inserted between updates.
        if (i % 97 == 0) {
            const std::string extra = "x." + std::to_string(i);
            names_only.add(extra);
            mixed.add(extra);
        }
    }
    EXPECT_EQ(mixed.toJson(), names_only.toJson());
}

} // namespace
} // namespace flash
