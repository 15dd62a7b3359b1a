/**
 * @file
 * In-memory span recorder of the benchmark's traced runs.
 *
 * The benchmark wraps every call it makes into a simulator layer in a
 * span: a layer name ("core.characterize", "ssd.ftl.precondition", ...),
 * a host-clock start and end, the enclosing span and a tag naming the
 * workload / arm / trace the call served. Spans group into units (one
 * set-up repetition or one timed pass each). A layer's self time is its
 * spans' duration minus the part covered by their child spans.
 *
 * Three modes: Off records nothing (span() returns an inert scope);
 * Steps records only the spans opened directly in a unit, the few
 * coarse steps of a pass that untraced runs time; Full records every
 * span.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

class Tracer
{
  public:
    enum class Mode
    {
        Off,
        Steps,
        Full,
    };

    explicit Tracer(Mode mode) : mode_(mode) {}

    /** Whether every layer call is recorded (a traced run). */
    bool full() const { return mode_ == Mode::Full; }

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, int id) : tracer_(tracer), id_(id) {}
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        int id_;
    };

    /**
     * Start a unit ("setup" or "pass"); its root span covers every
     * span opened until the next beginUnit() or endUnit().
     */
    void beginUnit(const std::string &kind);

    /** Close the open unit (no-op when none is open). */
    void endUnit();

    /** Open a span of @p layer nested in the innermost open span. */
    Scope span(const char *layer, const std::string &tag = std::string());

    /**
     * Median over the units of kind @p kind of each layer's summed self
     * time per unit, in seconds. Layers absent from those units are
     * absent from the map; the units' root spans appear as "bench".
     */
    std::map<std::string, double> medianSelfSeconds(
        const std::string &kind) const;

    /**
     * Host seconds of one unit of @p kind with each of its steps (the
     * spans opened directly in the unit, keyed by name and tag) at its
     * fastest over all those units.
     */
    double fastestStepsSeconds(const std::string &kind) const;

    /** Number of recorded units of @p kind. */
    int units(const std::string &kind) const;

    /** One JSON object per span, in opening order. */
    void writeJsonLines(std::ostream &os) const;

  private:
    struct Span
    {
        std::string name;
        std::string tag;
        int unit = -1;
        int parent = -1;
        double start = 0.0;
        double end = -1.0;
    };

    double now() const;
    int open(const std::string &name, const std::string &tag);
    void close(int id);

    /** Self time of every span (duration minus its children's). */
    std::vector<double> selfSeconds() const;

    Mode mode_;
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    std::vector<std::string> unitKinds_;
    int current_ = -1; ///< innermost open span
    int unitRoot_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
