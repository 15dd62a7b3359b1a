/**
 * @file
 * The benchmark's metric catalogue: every metric it reports, with its
 * unit, its better direction and whether it is an end-to-end metric
 * (printed by untraced runs) or a per-layer one (printed by traced
 * runs). BENCHMARK.json declares the same lists; the package tests keep
 * the two in step.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <map>
#include <string>
#include <vector>

namespace perfbench
{

enum class MetricKind
{
    EndToEnd,
    PerLayer,
};

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better; ///< "lower" or "higher"
    MetricKind kind;
};

/** Every metric, end-to-end ones first, in report order. */
const std::vector<MetricDef> &metricCatalogue();

/** Metric values of one run, by name. */
using Values = std::map<std::string, double>;

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
