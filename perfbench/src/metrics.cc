#include "metrics.hh"

namespace perfbench
{

const std::vector<MetricDef> &
metricCatalogue()
{
    constexpr MetricKind E = MetricKind::EndToEnd;
    constexpr MetricKind L = MetricKind::PerLayer;
    static const std::vector<MetricDef> defs = {
        // End to end: host clock first, then the simulated clock.
        {"wall_s", "s", "lower", E},
        {"setup_s", "s", "lower", E},
        {"sim_ops_per_s", "ops/s", "higher", E},
        {"peak_rss_mb", "MiB", "lower", E},
        {"retries_per_read", "retries/read", "lower", E},
        {"senses_per_read", "senses/read", "lower", E},
        {"read_mean_us", "us", "lower", E},

        // Tail and workload-specific paper references (0 where not
        // applicable). chip_read's p99 session latency takes a handful
        // of discrete values, so the tail is not an end-to-end metric.
        {"read_p99_us", "us", "lower", L},
        {"retry_reduction_pct", "%", "higher", L},
        {"read_latency_reduction_pct", "%", "higher", L},
        {"infer_success_pct", "%", "higher", L},
        {"calib_success_pct", "%", "higher", L},
        {"iops", "1/s", "higher", L},
        {"read_failed_frac", "fraction", "lower", L},

        // Tracing cost: traced minus untraced pass wall time.
        {"tracing.overhead_s", "s", "lower", L},

        // nandsim and core.
        {"nandsim.build_s", "s", "lower", L},
        {"nandsim.sense_ops", "count", "lower", L},
        {"nandsim.ns_per_sense", "ns", "lower", L},
        {"core.characterize_s", "s", "lower", L},
        {"core.evaluate_s.vendor", "s", "lower", L},
        {"core.evaluate_s.sentinel", "s", "lower", L},
        {"core.evaluate_s.sentinel_cache", "s", "lower", L},
        {"core.accuracy_s", "s", "lower", L},
        {"core.sessions", "count", "higher", L},
        {"core.attempts", "count", "lower", L},
        {"core.retries", "count", "lower", L},
        {"core.assist_reads", "count", "lower", L},
        {"core.failures", "count", "lower", L},
        {"core.calib.case1", "count", "lower", L},
        {"core.calib.case2", "count", "lower", L},
        {"core.calib.converged", "count", "higher", L},
        {"core.decode_success_ratio", "ratio", "higher", L},
        {"core.cache.hit_ratio", "ratio", "higher", L},

        // ssd read-cost measurement and trace generation.
        {"ssd.read_cost.measure_s", "s", "lower", L},
        {"trace.generate_s", "s", "lower", L},
        {"trace.requests", "count", "higher", L},

        // ssd.ftl.
        {"ssd.ftl.precondition_s", "s", "lower", L},
        {"ssd.ftl.preconditions", "count", "lower", L},
        {"ssd.ftl.host_writes", "count", "higher", L},
        {"ssd.ftl.gc_runs", "count", "lower", L},
        {"ssd.ftl.migrated_pages", "count", "lower", L},
        {"ssd.ftl.erases", "count", "lower", L},
        {"ssd.ftl.waf", "ratio", "lower", L},

        // ssd.sim.
        {"ssd.sim.run_s", "s", "lower", L},
        {"ssd.sim.page_reads", "count", "higher", L},
        {"ssd.sim.page_writes", "count", "higher", L},
        {"ssd.sim.ns_per_page_op", "ns", "lower", L},
        {"ssd.sim.queue_us", "us", "lower", L},
        {"ssd.sim.sense_us", "us", "lower", L},
        {"ssd.sim.xfer_us", "us", "lower", L},
        {"ssd.sim.decode_us", "us", "lower", L},
        {"ssd.sim.gc_stall_us", "us", "lower", L},
        {"ssd.sim.load_ratio", "ratio", "lower", L},

        // ssd.frontend.
        {"ssd.frontend.run_s", "s", "lower", L},
        {"ssd.frontend.queue_wait_us.p50", "us", "lower", L},
        {"ssd.frontend.queue_wait_us.p99", "us", "lower", L},

        // ssd.fleet and util.
        {"ssd.fleet.run_s", "s", "lower", L},
        {"ssd.fleet.report_s", "s", "lower", L},
        {"ssd.fleet.footprint_max_bytes", "bytes", "lower", L},
        {"util.metrics.merge_s", "s", "lower", L},
        {"util.metrics.export_s", "s", "lower", L},
    };
    return defs;
}

} // namespace perfbench
