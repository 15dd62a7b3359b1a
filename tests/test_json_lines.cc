/**
 * @file
 * The one JSON-lines reader (util::JsonLinesReader) and the three
 * readers built on it: mon::HealthFollower, fleet::parseFleetLines and
 * trace::parseSpanTrace.
 *
 * The hostile-input half is deterministic mutation fuzzing over the
 * checked-in health, fleet and span fixtures: every byte-truncation,
 * plus a seeded set of byte flips and line splices, goes through all
 * three readers in 1-byte, 7-byte and whole-file chunks. Each reader
 * must not throw, must account for every non-blank line as a record,
 * a malformed line or an ignored line, and must count the same for
 * every chunking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "mon/health_follow.hh"
#include "ssd/fleet/report.hh"
#include "trace/span_analysis.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace flash
{
namespace
{

using util::JsonLinesReader;
using util::JsonLinesStats;
using util::JsonValue;
using util::LineVerdict;

/** A stream that hands out @p chunk bytes per buffer refill. */
class ChunkedBuf : public std::streambuf
{
  public:
    ChunkedBuf(const std::string &text, std::size_t chunk)
        : text_(text), chunk_(chunk)
    {
    }

  protected:
    int_type
    underflow() override
    {
        if (pos_ >= text_.size())
            return traits_type::eof();
        char *p = text_.data() + pos_;
        pos_ += std::min(chunk_, text_.size() - pos_);
        setg(p, p, text_.data() + pos_);
        return traits_type::to_int_type(*p);
    }

  private:
    std::string text_;
    std::size_t chunk_;
    std::size_t pos_ = 0;
};

/** Records objects carrying "k", ignores the rest. */
struct KindSink
{
    std::vector<std::string> kinds;

    JsonLinesReader::Sink
    sink()
    {
        return [this](JsonValue &v) {
            const JsonValue *k = v.find("k");
            if (k == nullptr)
                return LineVerdict::Ignored;
            if (k->type != JsonValue::Type::String)
                return LineVerdict::Malformed;
            kinds.push_back(k->string);
            return LineVerdict::Record;
        };
    }
};

TEST(JsonLines, ClassifiesEveryNonBlankLineOnce)
{
    KindSink s;
    JsonLinesReader r(s.sink());
    r.feed("{\"k\": \"a\"}\n"
           "  \t\r\n"        // blank: not a line
           "\n"              // blank
           "[1, 2]\n"        // valid JSON, not an object: malformed
           "garbage\n"       // bad JSON: malformed
           "{\"other\": 1}\n" // no record kind: ignored
           "{\"k\": 3}\n"    // the sink rejects it: malformed
           "{\"k\": \"b\"}\r\n");
    r.finish();
    EXPECT_EQ(s.kinds, (std::vector<std::string>{"a", "b"}));
    const JsonLinesStats &st = r.stats();
    EXPECT_EQ(st.lines, 6u);
    EXPECT_EQ(st.records, 2u);
    EXPECT_EQ(st.malformed, 3u);
    EXPECT_EQ(st.ignored, 1u);
    EXPECT_EQ(st.truncatedTail, 0u);
}

TEST(JsonLines, UnterminatedTailIsALineOrATruncation)
{
    {
        KindSink s;
        JsonLinesReader r(s.sink());
        r.feed("{\"k\": \"a\"}\n{\"k\": \"b\"}"); // complete, no newline
        r.finish();
        EXPECT_EQ(r.stats().records, 2u);
        EXPECT_EQ(r.stats().truncatedTail, 0u);
    }
    {
        KindSink s;
        JsonLinesReader r(s.sink());
        r.feed("{\"k\": \"a\"}\n{\"k\": \"b"); // cut mid-record
        r.finish();
        r.finish(); // idempotent
        EXPECT_EQ(r.stats().records, 1u);
        EXPECT_EQ(r.stats().malformed, 1u);
        EXPECT_EQ(r.stats().truncatedTail, 1u);
        EXPECT_THROW(r.feed("x"), util::FatalError);
    }
}

TEST(JsonLines, ReadsAStreamInAnyChunkSize)
{
    const std::string text =
        "{\"k\": \"a\"}\nnope\n\n{\"k\": \"b\"}\n{\"x\": 0}";
    for (std::size_t chunk : {std::size_t(1), std::size_t(3), text.size()}) {
        KindSink s;
        JsonLinesReader r(s.sink());
        ChunkedBuf buf(text, chunk);
        std::istream is(&buf);
        r.read(is);
        EXPECT_EQ(s.kinds, (std::vector<std::string>{"a", "b"})) << chunk;
        EXPECT_EQ(r.stats().lines, 4u) << chunk;
        EXPECT_EQ(r.stats().malformed, 1u) << chunk;
        EXPECT_EQ(r.stats().ignored, 1u) << chunk;
    }
}

TEST(JsonLines, NonFiniteNumbersAreNotJson)
{
    // The writers put null for a non-finite double.
    for (const char *bad : {"nan", "-inf", "[1, infinity]", "{\"a\": NaN}"})
        EXPECT_THROW(util::parseJson(bad), util::FatalError) << bad;
    EXPECT_DOUBLE_EQ(util::parseJson("-1.5e3").number, -1500.0);
}

TEST(JsonLines, DeepNestingIsMalformedNotAStackOverflow)
{
    EXPECT_THROW(util::parseJson(std::string(100000, '[')),
                 util::FatalError);
    const std::string ok = std::string(200, '[') + std::string(200, ']');
    EXPECT_NO_THROW(util::parseJson(ok));
}

TEST(JsonLines, CountsRejectOutOfRangeNumbers)
{
    std::uint64_t n = 7;
    for (const char *bad : {"-1", "1e300", "\"3\"", "null"}) {
        const JsonValue v = util::parseJson(bad);
        EXPECT_FALSE(util::jsonCount(&v, n)) << bad;
    }
    EXPECT_FALSE(util::jsonCount(nullptr, n));
    const JsonValue big = util::parseJson("70000");
    EXPECT_FALSE(util::jsonCount(&big, n, 65535.0));
    EXPECT_EQ(n, 7u); // untouched on failure
    const JsonValue ok = util::parseJson("42");
    EXPECT_TRUE(util::jsonCount(&ok, n));
    EXPECT_EQ(n, 42u);
}

// ---- Hostile input over the three readers ----------------------------

std::string
fixture(const char *name)
{
    std::ifstream in(std::string(SENTINELFLASH_DATA_DIR) + "/" + name,
                     std::ios::binary);
    EXPECT_TRUE(in) << name;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Non-blank lines by the reader's rule, counted independently. */
std::uint64_t
nonBlankLines(const std::string &text)
{
    std::uint64_t n = 0;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        if (text.substr(start, end - start).find_first_not_of(" \t\r\v\f")
            != std::string::npos)
            ++n;
        start = end + 1;
    }
    return n;
}

/** One reader's line accounting, comparable across chunkings. */
struct Counts
{
    std::uint64_t records = 0, malformed = 0, ignored = 0;
    bool operator==(const Counts &) const = default;
};

using Reader = std::function<Counts(const std::string &, std::size_t)>;

Counts
healthCounts(const std::string &text, std::size_t chunk)
{
    mon::HealthFollower f([](const mon::HealthRecord &) {});
    for (std::size_t i = 0; i < text.size(); i += chunk)
        f.feed(std::string_view(text).substr(i, chunk));
    f.finish();
    const mon::FollowStats st = f.stats();
    return {st.records, st.malformed, st.ignored};
}

Counts
fleetCounts(const std::string &text, std::size_t chunk)
{
    ChunkedBuf buf(text, chunk);
    std::istream is(&buf);
    const ssd::fleet::FleetReportData d = ssd::fleet::parseFleetLines(is);
    return {d.recordLines, d.malformedLines, d.ignoredLines};
}

Counts
spanCounts(const std::string &text, std::size_t chunk)
{
    ChunkedBuf buf(text, chunk);
    std::istream is(&buf);
    const trace::SpanForest f = trace::parseSpanTrace(is);
    return {f.input.records, f.input.malformed, f.input.ignored};
}

const std::vector<std::pair<const char *, Reader>> &
readers()
{
    static const std::vector<std::pair<const char *, Reader>> all{
        {"health", healthCounts},
        {"fleet", fleetCounts},
        {"spans", spanCounts}};
    return all;
}

/** Every reader, every chunking: no throw, all lines accounted for. */
void
checkAllReaders(const std::string &text, const std::string &what)
{
    const std::uint64_t lines = nonBlankLines(text);
    for (const auto &[name, read] : readers()) {
        Counts whole;
        try {
            whole = read(text, std::max<std::size_t>(text.size(), 1));
            for (std::size_t chunk : {std::size_t(1), std::size_t(7)}) {
                ASSERT_EQ(read(text, chunk), whole)
                    << name << " reader, chunk " << chunk << ", " << what;
            }
        } catch (const std::exception &e) {
            FAIL() << name << " reader threw on " << what << ": "
                   << e.what();
        }
        ASSERT_EQ(whole.records + whole.malformed + whole.ignored, lines)
            << name << " reader, " << what;
    }
}

const char *const kFixtures[] = {"health.jsonl", "fleet.jsonl",
                                 "spans.jsonl"};

TEST(JsonLinesHostile, CleanFixturesReadAsRecords)
{
    // Each fixture is all records to its own reader and all ignored
    // lines to the other two.
    for (std::size_t f = 0; f < 3; ++f) {
        const std::string text = fixture(kFixtures[f]);
        const std::uint64_t lines = nonBlankLines(text);
        for (std::size_t r = 0; r < 3; ++r) {
            const Counts c = readers()[r].second(text, text.size());
            EXPECT_EQ(c.malformed, 0u) << kFixtures[f];
            EXPECT_EQ(r == f ? c.records : c.ignored, lines)
                << kFixtures[f] << " through " << readers()[r].first;
        }
    }
}

/**
 * Cut @p name at every byte. A reader hands each complete line on
 * before it sees the next byte, so the file cut at byte k reads as
 * its complete lines (records, see above) followed by the cut line's
 * head. The sweep feeds that head alone, which keeps it linear in the
 * file size. The readers classify most heads without parsing them
 * (no closing brace), so each head also goes to the parser itself,
 * which must return or throw util::FatalError.
 */
void
truncationSweep(const char *name)
{
    const std::string text = fixture(name);
    std::size_t start = 0; // of the line the cut falls in
    for (std::size_t k = 0; k <= text.size(); ++k) {
        const std::string head = text.substr(start, k - start);
        try {
            util::parseJson(head);
        } catch (const util::FatalError &) {
        }
        checkAllReaders(head, std::string(name) + " cut at byte "
                                  + std::to_string(k));
        if (::testing::Test::HasFatalFailure())
            return;
        if (k < text.size() && text[k] == '\n')
            start = k + 1;
    }
}

TEST(JsonLinesHostile, EveryTruncationOfHealth)
{
    truncationSweep("health.jsonl");
}

TEST(JsonLinesHostile, EveryTruncationOfFleet)
{
    truncationSweep("fleet.jsonl");
}

TEST(JsonLinesHostile, EveryTruncationOfSpans)
{
    truncationSweep("spans.jsonl");
}

/** One seeded mutant: byte flips and line splices across fixtures. */
std::string
mutate(const std::vector<std::string> &corpus, std::size_t base,
       util::Rng &rng)
{
    static const std::string kBytes = "{}[]\":,\n \\0-e.9tfn";
    std::string text = corpus[base];
    const int edits = 1 + static_cast<int>(rng.uniformInt(4));
    for (int e = 0; e < edits && !text.empty(); ++e) {
        const std::size_t at = rng.uniformInt(text.size());
        switch (rng.uniformInt(4)) {
        case 0: // flip one bit
            text[at] = static_cast<char>(text[at] ^ (1 << rng.uniformInt(8)));
            break;
        case 1: // a JSON-significant byte
            text[at] = kBytes[rng.uniformInt(kBytes.size())];
            break;
        case 2: { // splice a span of any fixture in at any byte
            const std::string &src = corpus[rng.uniformInt(corpus.size())];
            const std::size_t from = rng.uniformInt(src.size());
            const std::size_t len = rng.uniformInt(
                std::min<std::size_t>(src.size() - from, 512) + 1);
            text.insert(at, src, from, len);
            break;
        }
        default: // drop a run of bytes (can join two lines)
            text.erase(at, rng.uniformInt(64) + 1);
            break;
        }
    }
    return text;
}

TEST(JsonLinesHostile, SeededFlipsAndSplices)
{
    std::vector<std::string> corpus;
    for (const char *name : kFixtures)
        corpus.push_back(fixture(name));
    util::Rng rng(2027);
    constexpr int kMutantsPerFixture = 100;
    for (std::size_t base = 0; base < corpus.size(); ++base) {
        for (int m = 0; m < kMutantsPerFixture; ++m) {
            checkAllReaders(mutate(corpus, base, rng),
                            std::string(kFixtures[base]) + " mutant "
                                + std::to_string(m));
            if (HasFatalFailure())
                return;
        }
    }
}

} // namespace
} // namespace flash
