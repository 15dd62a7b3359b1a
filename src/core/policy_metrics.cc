#include "core/policy_metrics.hh"

#include "util/logging.hh"

namespace flash::core
{

std::vector<PolicyMetricsRun>
collectPolicyMetrics(const nand::Chip &chip, int block,
                     const std::vector<const ReadPolicy *> &policies,
                     const ecc::EccModel &ecc_model,
                     const std::optional<nand::SentinelOverlay> &overlay,
                     const LatencyParams &latency, int page, int wl_stride,
                     int threads, std::uint64_t read_stream)
{
    std::vector<PolicyMetricsRun> runs;
    runs.reserve(policies.size());
    for (const ReadPolicy *policy : policies) {
        util::fatalIf(!policy, "collectPolicyMetrics: null policy");
        PolicyBlockStats stats =
            evaluateBlock(chip, block, *policy, ecc_model, overlay, latency,
                          page, wl_stride, threads, read_stream);
        runs.push_back({policy->name(), std::move(stats.metrics)});
    }
    return runs;
}

void
writePolicyMetricsJson(std::ostream &os,
                       const std::vector<PolicyMetricsRun> &runs)
{
    os << "{\"policies\": {";
    bool first = true;
    for (const auto &run : runs) {
        if (!first)
            os << ", ";
        first = false;
        os << '"' << util::jsonEscape(run.policy) << "\": ";
        run.metrics.writeJson(os);
    }
    os << "}}\n";
}

} // namespace flash::core
