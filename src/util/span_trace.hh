/**
 * @file
 * Causal span tracing for the read pipeline (a bench's `--spans N`).
 *
 * A span is one timed step of the causal read path (host request,
 * page op, read session, retry attempt, assist read, calibration
 * step, transfer, scrub probe, refresh, ...), linked to its parent.
 * Spans replaced the flat `read_session`/`read_op` events of the
 * legacy `--trace-out` log (removed) with full parent-linked trees
 * that tools/trace_analyze can rebuild, verify and break down into
 * per-request critical paths.
 *
 * Determinism: span ids derive from the emission sequence, never from
 * wall clock or thread interleaving. Sessions record their spans into
 * a private SpanBuffer during the parallel phase; the sequential
 * reduction (wordline order / request order) rebases each buffer into
 * the shared SpanTrace, so the serialized trace is byte-identical at
 * any `--threads N`. The sink is bounded: once the capacity is
 * reached, whole sessions are dropped atomically (trees stay
 * complete, no orphans) and counted in dropped_spans — overflow is
 * explicit, never a silent truncation.
 *
 * Schema (JSON lines): one span per line,
 *   {"span": "<class>", "id": I, "parent": P, "start_us": S,
 *    "dur_us": D, ...attributes}
 * with parent 0 meaning "root", followed by one summary line
 *   {"span_summary": 1, "spans": N, "dropped_spans": M}.
 * See DESIGN.md §12.
 */

#ifndef SENTINELFLASH_UTIL_SPAN_TRACE_HH
#define SENTINELFLASH_UTIL_SPAN_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace flash::util
{

/** One recorded span. Keys/classes must be static strings. */
struct SpanRec
{
    int parent = -1;      ///< buffer-local parent index; -1 = root
    const char *cls = ""; ///< span class ("attempt", "read_op", ...)
    double startUs = 0.0;
    double durUs = 0.0;
    const char *strKey = nullptr; ///< optional string attribute key
    std::string strVal;
    std::vector<std::pair<const char *, double>> nums;
};

/**
 * Per-session span recorder. Cheap to fill from worker threads (each
 * session owns its buffer exclusively); parents must be begun before
 * their children, so buffer order is causal order.
 */
class SpanBuffer
{
  public:
    /** Start a span; returns its buffer-local index. */
    int begin(const char *cls, int parent = -1);

    /** Append a numeric attribute. */
    void num(int span, const char *key, double value);

    /** Set the span's (single) string attribute. */
    void str(int span, const char *key, std::string value);

    /** Assign the span's interval. */
    void time(int span, double start_us, double dur_us);

    /** Value of a numeric attribute (fallback when absent). */
    double numAttr(int span, const char *key, double fallback = 0.0) const;

    int size() const { return static_cast<int>(spans_.size()); }
    bool empty() const { return spans_.empty(); }
    SpanRec &rec(int span) { return spans_[static_cast<std::size_t>(span)]; }
    const SpanRec &rec(int span) const
    {
        return spans_[static_cast<std::size_t>(span)];
    }
    void clear() { spans_.clear(); }

  private:
    std::vector<SpanRec> spans_;
};

/**
 * Bounded in-memory span sink. emit() rebases a session's buffer onto
 * globally unique ids (dense, 1-based, in emission order); call it
 * only from the deterministic sequential phase. writeJsonLines()
 * serializes every kept span plus the summary line.
 */
class SpanTrace
{
  public:
    /** Default capacity (spans), ample for the smoke configs. */
    static constexpr std::size_t kDefaultCapacity = 1u << 20;

    explicit SpanTrace(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity)
    {}

    /**
     * Append all spans of @p buf, resolving local parent links to
     * global ids. When the buffer does not fit in the remaining
     * capacity the whole session is dropped (counted in
     * droppedSpans()); returns whether the spans were kept.
     */
    bool emit(const SpanBuffer &buf);

    /** Spans kept so far. */
    std::uint64_t spans() const { return flat_.size(); }

    /** Spans dropped on overflow (whole sessions at a time). */
    std::uint64_t droppedSpans() const { return dropped_; }

    /** Capacity in spans. */
    std::size_t capacity() const { return capacity_; }

    /** Serialize all spans plus the summary line (see file doc). */
    void writeJsonLines(std::ostream &os) const;

  private:
    struct FlatSpan
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< 0 = root
        SpanRec rec;
    };

    std::size_t capacity_;
    std::vector<FlatSpan> flat_;
    std::uint64_t dropped_ = 0;
};

} // namespace flash::util

#endif // SENTINELFLASH_UTIL_SPAN_TRACE_HH
