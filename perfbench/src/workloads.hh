/**
 * @file
 * The benchmark's workloads. Each one builds its inputs from the
 * workload seed in setup(), runs one deterministic pass per pass()
 * call, and reports the simulated metrics of its last pass. A pass
 * opens one span per step (a call into a layer); the steps are what
 * untraced runs time, and checks run outside them.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics.hh"
#include "tracer.hh"

namespace perfbench
{

/** Run-wide settings every workload sees. */
struct RunOptions
{
    std::uint64_t seed = 1;

    /** Small sizes for the package tests; never used for measurement. */
    bool quick = false;

    /**
     * Deliberate fault for the package tests: "check" makes one
     * correctness check compare against a wrong expectation, "rollup"
     * corrupts the fleet report before it is reconciled.
     */
    std::string inject;
};

/** Outcome of one timed pass. */
struct PassResult
{
    /** Simulated operations of the pass (sessions or page operations). */
    double ops = 0.0;

    /** Host seconds the pass spent on checks; not charged to --seconds. */
    double checkSeconds = 0.0;

    /** Every simulated output of the pass, serialized (digest input). */
    std::string simulated;

    /** Failed correctness checks, one message each. */
    std::vector<std::string> failures;
};

class Workload
{
  public:
    Workload() = default;
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Build every input from the seed (timed; repeated). */
    virtual void setup(Tracer &tracer) = 0;

    /**
     * Untimed bookkeeping after the last set-up (e.g. the failure
     * share of the measured read-cost distributions). Returns failed
     * checks; any failure fails every operation of the run.
     */
    virtual std::vector<std::string> account() { return {}; }

    /** One timed pass over the inputs. */
    virtual PassResult pass(Tracer &tracer) = 0;

    /** Simulated metrics of the last pass. */
    virtual void report(Values &values) const = 0;
};

/**
 * The workload called @p name ("chip_read", "ssd_replay" or "fleet");
 * nullptr when there is none.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
