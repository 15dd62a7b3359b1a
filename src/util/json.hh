/**
 * @file
 * Minimal recursive-descent JSON parser and the one JSON-lines reader.
 *
 * Just enough JSON to read back the metrics exports and trace events
 * this repo writes (tools/metrics_diff, tests): objects, arrays,
 * strings with the escapes jsonEscape() emits, doubles, booleans and
 * null. Throws util::FatalError on malformed input. Every JSON-lines
 * artifact (health, fleet, spans) is read through JsonLinesReader.
 */

#ifndef SENTINELFLASH_UTIL_JSON_HH
#define SENTINELFLASH_UTIL_JSON_HH

#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace flash::util
{

/** One parsed JSON value. */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    // Key order of the document is irrelevant to the consumers;
    // a map gives deterministic iteration.
    std::map<std::string, JsonValue> object;

    bool isNumber() const { return type == Type::Number; }
    bool isObject() const { return type == Type::Object; }

    /** Member lookup (nullptr when absent or not an object). */
    const JsonValue *find(const std::string &key) const;

    /** Member @p key into @p out; false when absent or mistyped. */
    bool get(const std::string &key, double &out) const;
    bool get(const std::string &key, std::string &out) const;
    /** A count or id member; see jsonCount(). */
    bool get(const std::string &key, std::uint64_t &out,
             double max = 9007199254740992.0 /* 2^53 */) const;
};

/** Parse one JSON document (fatal on trailing garbage). */
JsonValue parseJson(std::string_view text);

/**
 * A count or id: @p out = @p v when it is a number in [0, @p max],
 * else false, so hostile input never reaches an out-of-range cast.
 */
bool jsonCount(const JsonValue *v, std::uint64_t &out,
               double max = 9007199254740992.0 /* 2^53 */);

/** What a JSON-lines sink makes of one object line. */
enum class LineVerdict { Record, Ignored, Malformed };

/** Skip-and-count totals of one JSON-lines stream. */
struct JsonLinesStats
{
    std::uint64_t lines = 0;   ///< non-blank lines
    std::uint64_t records = 0; ///< objects the sink took
    std::uint64_t malformed = 0; ///< bad JSON, non-objects, bad records
    std::uint64_t ignored = 0;   ///< objects of another stream
    std::uint64_t truncatedTail = 0; ///< malformed unterminated tail
};

/**
 * The one JSON-lines reader. Fed arbitrary byte chunks, it
 * re-assembles lines, so what it hands on depends only on the
 * stream's content. Blank lines are skipped and every other line is
 * parsed once: a line that is not a JSON object is malformed, and the
 * sink classifies every object (a record, a line of another stream,
 * or a record with bad fields). Nothing in the input is fatal.
 */
class JsonLinesReader
{
  public:
    /** Classifies one object line; may move from it. */
    using Sink = std::function<LineVerdict(JsonValue &)>;

    explicit JsonLinesReader(Sink sink);

    /** Consume one chunk of bytes (any chunking, incl. empty). */
    void feed(std::string_view chunk);

    /**
     * End of stream: an unterminated tail is read as a last line.
     * feed() after finish() is fatal.
     */
    void finish();

    /**
     * feed() all of @p is, one chunk per refill of its buffer (so its
     * stream buffer sets the chunking), then finish().
     */
    void read(std::istream &is);

    const JsonLinesStats &stats() const { return stats_; }

  private:
    void consumeLine(std::string_view line);

    Sink sink_;
    std::string partial_;
    JsonLinesStats stats_;
    bool finished_ = false;
};

} // namespace flash::util

#endif // SENTINELFLASH_UTIL_JSON_HH
