/**
 * @file
 * Per-read retry-cost sources for the SSD simulator.
 *
 * The SSD simulator needs to know, for every page read, how many
 * sense operations and decode attempts the controller's read policy
 * spends. The costs are sampled from empirical distributions gathered
 * by running a policy over an aged block of the chip model — exactly
 * how the paper plugs chip measurements into SSDSim.
 */

#ifndef SENTINELFLASH_SSD_READ_COST_HH
#define SENTINELFLASH_SSD_READ_COST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluator.hh"
#include "util/metrics.hh"
#include "util/rng.hh"

namespace flash::ssd
{

/** Cost of one page-read session. */
struct ReadCost
{
    int attempts = 1;    ///< page-read attempts (incl. first)
    int senseOps = 1;    ///< total read-voltage applications
    int assistReads = 0; ///< single-voltage sentinel-assist reads
};

/** Source of per-read costs. */
class ReadCostSource
{
  public:
    virtual ~ReadCostSource() = default;

    /** Name for reports. */
    virtual std::string name() const = 0;

    /** Cost of the next page read. */
    virtual ReadCost sample(util::Rng &rng) = 0;

    /**
     * Merge any counters the cost source carries (e.g. the voltage
     * cache statistics of the measurement run behind an empirical
     * distribution) into a run's report metrics. Default: none.
     */
    virtual void appendMetrics(util::MetricsRegistry &) const {}
};

/**
 * Fixed cost: every read pays the same session. The one-argument form
 * succeeds first try (fresh-chip behaviour); the full form fixes the
 * attempt/assist counts too (deterministic retry-heavy workloads for
 * the pipelined-retry A/B tests).
 */
class FixedReadCost : public ReadCostSource
{
  public:
    explicit FixedReadCost(int sense_ops) : cost_{1, sense_ops, 0} {}

    FixedReadCost(int sense_ops, int attempts, int assist_reads)
        : cost_{attempts, sense_ops, assist_reads}
    {
    }

    std::string name() const override { return "fixed"; }
    ReadCost sample(util::Rng &) override { return cost_; }

  private:
    ReadCost cost_;
};

/**
 * Empirical cost distribution built from per-wordline policy results.
 */
class EmpiricalReadCost : public ReadCostSource
{
  public:
    EmpiricalReadCost(std::string policy_name, std::vector<ReadCost> samples);

    std::string name() const override { return name_; }
    ReadCost sample(util::Rng &rng) override;

    /** Mean sense operations per read. */
    double meanSenseOps() const;

    /** Mean retries per read. */
    double meanRetries() const;

    /** Mean assist reads per read. */
    double meanAssistReads() const;

    /** The measured sessions sample() draws from. */
    const std::vector<ReadCost> &samples() const { return samples_; }

    /**
     * Counters describing how the distribution was measured (e.g.
     * cache.* statistics when the measurement policy ran with a
     * voltage cache); merged into every SsdSim report that samples
     * this source. Empty by default, so reports gain no keys unless
     * the measurement explicitly recorded some.
     */
    util::MetricsRegistry &extraMetrics() { return extra_; }

    void
    appendMetrics(util::MetricsRegistry &metrics) const override
    {
        metrics.merge(extra_);
    }

  private:
    std::string name_;
    std::vector<ReadCost> samples_;
    util::MetricsRegistry extra_;
};

/**
 * Build an empirical cost source from core::evaluateBlock()'s
 * sessions: one sample per sampled wordline, bit-identical at every
 * thread count.
 *
 * @param page Page to exercise; -1 selects the MSB page.
 */
EmpiricalReadCost measureReadCost(const nand::Chip &chip, int block,
                                  const core::ReadPolicy &policy,
                                  const ecc::EccModel &ecc_model,
                                  const std::optional<nand::SentinelOverlay>
                                      &overlay,
                                  int page = -1, int wl_stride = 4,
                                  int threads = 1,
                                  std::uint64_t read_stream = 0);

} // namespace flash::ssd

#endif // SENTINELFLASH_SSD_READ_COST_HH
