/**
 * @file
 * Incremental tailer over a health JSON-lines stream.
 *
 * A HealthFollower is fed arbitrary byte chunks (a file read loop, a
 * pipe, a test splitting one stream at every possible offset) and
 * reads them through util::JsonLinesReader, so the record stream —
 * and everything downstream of it — depends only on the stream
 * *content*, never on how the bytes were chunked. Lines that are not
 * valid JSON objects, including a truncated tail at end of stream,
 * count as malformed; objects without a string "health" kind count
 * as ignored. Neither is fatal.
 *
 * Records demultiplex by their "device" id (-1 for untagged
 * single-device streams). Schema-2 health records (see
 * ssd/health_monitor.hh) carry a per-device monotone "window" index;
 * the follower checks per-device continuity and counts
 * discontinuities — gaps (index jumped forward: lines lost in
 * transit) and restarts (index went backwards: the emitting process
 * restarted) — instead of silently misaggregating. Unknown fields
 * pass through untouched (forward compatibility with future schema
 * versions).
 */

#ifndef SENTINELFLASH_MON_HEALTH_FOLLOW_HH
#define SENTINELFLASH_MON_HEALTH_FOLLOW_HH

#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <string>
#include <string_view>

#include "util/json.hh"

namespace flash::mon
{

/** One well-formed health record handed to the sink. */
struct HealthRecord
{
    std::string kind;    ///< "ssd", "chip", or a future kind
    std::string context; ///< run context ("fleet.<cohort>" in fleets)
    int device = -1;     ///< fleet device id (-1: untagged stream)
    int schema = 1;      ///< "schema" field (1 when absent: pre-PR-9)
    std::int64_t window = -1; ///< per-device record index (-1: absent)
    double tUs = 0.0;         ///< simulated time of the record
    bool finalSnapshot = false; ///< closing snapshot of a run
    util::JsonValue json;       ///< full parsed record
};

/**
 * Stream-integrity counters of one follower: the reader's line counts
 * (records are well-formed health records) plus window continuity.
 */
struct FollowStats : util::JsonLinesStats
{
    /** Window-continuity discontinuities (schema >= 2 records). */
    std::uint64_t gaps = 0;          ///< window jumped forward
    std::uint64_t missedWindows = 0; ///< total windows skipped in gaps
    std::uint64_t restarts = 0;      ///< window went backwards
    std::uint64_t unwindowed = 0;    ///< records without a window field

    int maxSchema = 0; ///< largest "schema" value seen (0: none yet)
};

/**
 * Incremental health-stream tailer; see the file comment. Not
 * thread-safe: feed from one thread.
 */
class HealthFollower
{
  public:
    using Sink = std::function<void(const HealthRecord &)>;

    /** @param sink Called once per well-formed record, in order. */
    explicit HealthFollower(Sink sink);

    // The reader's sink points back at this follower.
    HealthFollower(const HealthFollower &) = delete;
    HealthFollower &operator=(const HealthFollower &) = delete;

    /** Consume one chunk of bytes (any chunking, incl. empty). */
    void feed(std::string_view chunk) { reader_.feed(chunk); }

    /** End of stream; see util::JsonLinesReader::finish(). */
    void finish() { reader_.finish(); }

    /** feed() all of @p is, then finish(). */
    void read(std::istream &is) { reader_.read(is); }

    FollowStats stats() const;

    /** Distinct device ids seen so far. */
    std::size_t devicesSeen() const { return lastWindow_.size(); }

  private:
    util::LineVerdict onObject(util::JsonValue &json);

    Sink sink_;
    /** Last window index per device (kNoWindow until one is seen). */
    std::map<int, std::int64_t> lastWindow_;
    FollowStats continuity_; ///< the window counters of stats()
    util::JsonLinesReader reader_;

    static constexpr std::int64_t kNoWindow = -1;
};

} // namespace flash::mon

#endif // SENTINELFLASH_MON_HEALTH_FOLLOW_HH
