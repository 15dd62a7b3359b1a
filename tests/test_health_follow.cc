/**
 * @file
 * HealthFollower tests: chunking invariance (byte-level), truncated
 * tails, skip-and-count on malformed input (incl. records without a
 * window or raw deltas), device demultiplexing of out-of-order ids,
 * window gap/restart detection, and unknown-field pass-through.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mon/health_follow.hh"
#include "util/logging.hh"

namespace flash::mon
{
namespace
{

/** Collects every record the follower emits. */
struct Collector
{
    std::vector<HealthRecord> records;

    HealthFollower::Sink
    sink()
    {
        return [this](const HealthRecord &r) { records.push_back(r); };
    }
};

std::string
ssdLine(int device, std::int64_t window, double t_us,
        double retries_per_read = 0.5)
{
    return "{\"health\": \"ssd\", \"schema\": 2, \"window\": "
        + std::to_string(window) + ", \"context\": \"fleet.worn\", "
        + "\"device\": " + std::to_string(device)
        + ", \"t_us\": " + std::to_string(t_us)
        + ", \"reads\": 100, \"retries\": 50, \"senses\": 300, "
          "\"assists\": 0, \"retries_per_read\": "
        + std::to_string(retries_per_read) + "}\n";
}

TEST(HealthFollow, ParsesRecordsAndDemuxesDevices)
{
    Collector c;
    HealthFollower f(c.sink());
    f.feed(ssdLine(0, 0, 100.0));
    f.feed(ssdLine(1, 0, 100.0));
    f.feed(ssdLine(0, 1, 200.0));
    f.finish();

    ASSERT_EQ(c.records.size(), 3u);
    EXPECT_EQ(c.records[0].device, 0);
    EXPECT_EQ(c.records[0].kind, "ssd");
    EXPECT_EQ(c.records[0].window, 0);
    EXPECT_EQ(c.records[0].context, "fleet.worn");
    EXPECT_EQ(c.records[1].device, 1);
    EXPECT_EQ(c.records[2].window, 1);
    EXPECT_EQ(f.devicesSeen(), 2u);
    EXPECT_EQ(f.stats().records, 3u);
    EXPECT_EQ(f.stats().malformed, 0u);
    EXPECT_EQ(f.stats().gaps, 0u);
}

TEST(HealthFollow, EveryChunkingProducesIdenticalRecords)
{
    const std::string stream = ssdLine(0, 0, 100.0)
        + ssdLine(1, 0, 150.0) + ssdLine(0, 1, 200.0)
        + ssdLine(2, 0, 250.0) + ssdLine(1, 1, 300.0);

    Collector whole;
    FollowStats whole_stats;
    {
        HealthFollower f(whole.sink());
        f.feed(stream);
        f.finish();
        whole_stats = f.stats();
    }
    ASSERT_EQ(whole.records.size(), 5u);

    // Split the stream at every offset, including byte-by-byte.
    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
        Collector c;
        HealthFollower f(c.sink());
        f.feed(std::string_view(stream).substr(0, cut));
        f.feed(std::string_view(stream).substr(cut));
        f.finish();
        ASSERT_EQ(c.records.size(), whole.records.size()) << cut;
        for (std::size_t i = 0; i < c.records.size(); ++i) {
            EXPECT_EQ(c.records[i].device, whole.records[i].device);
            EXPECT_EQ(c.records[i].window, whole.records[i].window);
        }
        EXPECT_EQ(f.stats().records, whole_stats.records);
    }
    {
        Collector c;
        HealthFollower f(c.sink());
        for (char ch : stream)
            f.feed(std::string_view(&ch, 1));
        f.finish();
        EXPECT_EQ(c.records.size(), whole.records.size());
    }
}

TEST(HealthFollow, MalformedLinesAreSkippedAndCounted)
{
    Collector c;
    HealthFollower f(c.sink());
    f.feed(ssdLine(0, 0, 100.0));
    f.feed("this is not json\n");
    f.feed("{\"health\": \"ssd\", \"device\": truncated\n");
    f.feed("[1, 2, 3]\n"); // valid JSON, not an object
    f.feed("{\"fleet\": \"device\"}\n"); // object, not a health record
    f.feed(ssdLine(0, 1, 200.0));
    f.finish();

    EXPECT_EQ(c.records.size(), 2u);
    EXPECT_EQ(f.stats().malformed, 3u);
    EXPECT_EQ(f.stats().ignored, 1u);
    EXPECT_EQ(f.stats().records, 2u);
    EXPECT_EQ(f.stats().gaps, 0u); // windows 0,1 stayed contiguous
}

TEST(HealthFollow, TruncatedTailIsCountedNotFatal)
{
    // A tail cut mid-record: counted as truncated + malformed.
    {
        Collector c;
        HealthFollower f(c.sink());
        const std::string line = ssdLine(0, 0, 100.0);
        f.feed(line);
        f.feed(ssdLine(0, 1, 200.0).substr(0, 30)); // no newline, cut
        f.finish();
        EXPECT_EQ(c.records.size(), 1u);
        EXPECT_EQ(f.stats().truncatedTail, 1u);
        EXPECT_EQ(f.stats().malformed, 1u);
    }
    // A complete record merely missing its newline still parses.
    {
        Collector c;
        HealthFollower f(c.sink());
        std::string line = ssdLine(0, 0, 100.0);
        line.pop_back(); // strip the newline only
        f.feed(line);
        f.finish();
        EXPECT_EQ(c.records.size(), 1u);
        EXPECT_EQ(f.stats().truncatedTail, 0u);
        EXPECT_EQ(f.stats().malformed, 0u);
    }
}

TEST(HealthFollow, WindowGapsAndRestartsAreCountedPerDevice)
{
    Collector c;
    HealthFollower f(c.sink());
    f.feed(ssdLine(0, 0, 100.0));
    f.feed(ssdLine(1, 7, 100.0)); // first record of device 1: no gap
    f.feed(ssdLine(0, 4, 200.0)); // gap: windows 1..3 missing
    f.feed(ssdLine(1, 8, 200.0)); // contiguous for device 1
    f.feed(ssdLine(0, 0, 300.0)); // restart: index went backwards
    f.feed(ssdLine(1, 9, 300.0));
    f.finish();

    EXPECT_EQ(c.records.size(), 6u);
    EXPECT_EQ(f.stats().gaps, 1u);
    EXPECT_EQ(f.stats().missedWindows, 3u);
    EXPECT_EQ(f.stats().restarts, 1u);
}

TEST(HealthFollow, RecordsWithoutWindowOrDeltasAreMalformed)
{
    // A record of the older schema (no window, rates only), an ssd
    // record missing one raw delta, a chip record without a window
    // and one with a fractional window: none can be checked for
    // continuity or summed exactly.
    Collector c;
    HealthFollower f(c.sink());
    f.feed(ssdLine(0, 0, 100.0));
    f.feed("{\"health\": \"ssd\", \"context\": \"x\", \"t_us\": 1, "
           "\"reads\": 10, \"retries_per_read\": 0.5}\n");
    f.feed("{\"health\": \"ssd\", \"window\": 1, \"device\": 0, "
           "\"reads\": 10, \"retries\": 5, \"senses\": 30}\n");
    f.feed("{\"health\": \"chip\", \"device\": 0, \"block\": 3}\n");
    f.feed("{\"health\": \"chip\", \"device\": 0, \"window\": 1.5}\n");
    f.feed(ssdLine(0, 1, 200.0));
    f.finish();
    ASSERT_EQ(c.records.size(), 2u);
    EXPECT_EQ(f.stats().malformed, 4u);
    EXPECT_EQ(f.stats().records, 2u);
    EXPECT_EQ(f.stats().gaps, 0u); // the skipped lines took no window
}

TEST(HealthFollow, UnknownFieldsPassThrough)
{
    // Forward compatibility: a future schema may add fields; the
    // follower must keep parsing and hand them through in rec.json.
    Collector c;
    HealthFollower f(c.sink());
    f.feed("{\"health\": \"ssd\", \"schema\": 3, \"window\": 0, "
           "\"device\": 5, \"t_us\": 1, \"reads\": 10, "
           "\"retries\": 5, \"senses\": 30, \"assists\": 0, "
           "\"retries_per_read\": 0.5, "
           "\"future_field\": {\"nested\": [1, 2]}, "
           "\"another\": \"text\"}\n");
    f.finish();
    ASSERT_EQ(c.records.size(), 1u);
    EXPECT_NE(c.records[0].json.find("future_field"), nullptr);
    EXPECT_NE(c.records[0].json.find("another"), nullptr);
    EXPECT_EQ(f.stats().malformed, 0u);
}

TEST(HealthFollow, FeedAfterFinishIsFatal)
{
    Collector c;
    HealthFollower f(c.sink());
    f.finish();
    EXPECT_THROW(f.feed("x"), util::FatalError);
}

} // namespace
} // namespace flash::mon
