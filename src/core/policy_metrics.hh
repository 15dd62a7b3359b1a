/**
 * @file
 * Per-policy metrics collection and JSON export, shared by the bench
 * harnesses' metrics.json artifact and the regression tests.
 *
 * The export is deterministic byte-for-byte: sessions run in parallel
 * but are reduced sequentially in wordline order (see evaluateBlock),
 * registries serialize name-ordered, and doubles format with a fixed
 * round-trip format — so the same configuration produces the same
 * JSON at every `--threads N`.
 */

#ifndef SENTINELFLASH_CORE_POLICY_METRICS_HH
#define SENTINELFLASH_CORE_POLICY_METRICS_HH

#include <ostream>
#include <string>
#include <vector>

#include "core/evaluator.hh"

namespace flash::core
{

/** Metrics of one policy run over a block. */
struct PolicyMetricsRun
{
    std::string policy;
    util::MetricsRegistry metrics;
};

/**
 * Run each policy on one page of every sampled wordline of a block
 * (see evaluateBlock) and collect its "read.*" metrics registry.
 */
std::vector<PolicyMetricsRun>
collectPolicyMetrics(const nand::Chip &chip, int block,
                     const std::vector<const ReadPolicy *> &policies,
                     const ecc::EccModel &ecc_model,
                     const std::optional<nand::SentinelOverlay> &overlay,
                     const LatencyParams &latency = {}, int page = -1,
                     int wl_stride = 1, int threads = 1,
                     std::uint64_t read_stream = 0);

/**
 * Serialize runs as {"policies": {"<name>": <registry JSON>, ...}}.
 * Policies keep the order given (an export compares against another
 * of the same harness, not against arbitrary files).
 */
void writePolicyMetricsJson(std::ostream &os,
                            const std::vector<PolicyMetricsRun> &runs);

} // namespace flash::core

#endif // SENTINELFLASH_CORE_POLICY_METRICS_HH
