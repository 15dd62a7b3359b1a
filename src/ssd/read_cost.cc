#include "ssd/read_cost.hh"

#include "util/logging.hh"

namespace flash::ssd
{

EmpiricalReadCost::EmpiricalReadCost(std::string policy_name,
                                     std::vector<ReadCost> samples)
    : name_(std::move(policy_name)), samples_(std::move(samples))
{
    util::fatalIf(samples_.empty(), "EmpiricalReadCost: no samples");
}

ReadCost
EmpiricalReadCost::sample(util::Rng &rng)
{
    return samples_[rng.uniformInt(samples_.size())];
}

double
EmpiricalReadCost::meanSenseOps() const
{
    double acc = 0.0;
    for (const auto &s : samples_)
        acc += s.senseOps;
    return acc / static_cast<double>(samples_.size());
}

double
EmpiricalReadCost::meanRetries() const
{
    double acc = 0.0;
    for (const auto &s : samples_)
        acc += s.attempts - 1;
    return acc / static_cast<double>(samples_.size());
}

double
EmpiricalReadCost::meanAssistReads() const
{
    double acc = 0.0;
    for (const auto &s : samples_)
        acc += s.assistReads;
    return acc / static_cast<double>(samples_.size());
}

EmpiricalReadCost
measureReadCost(const nand::Chip &chip, int block,
                const core::ReadPolicy &policy,
                const ecc::EccModel &ecc_model,
                const std::optional<nand::SentinelOverlay> &overlay,
                int page, int wl_stride, int threads,
                std::uint64_t read_stream)
{
    std::vector<ReadCost> samples;
    for (const core::ReadSessionResult &s :
         core::evaluateBlock(chip, block, policy, ecc_model, overlay, {},
                             page, wl_stride, threads, read_stream)
             .sessionResults)
        samples.push_back({s.attempts, s.senseOps, s.assistReads});
    return EmpiricalReadCost(policy.name(), std::move(samples));
}

} // namespace flash::ssd
