/**
 * @file
 * FTL zoo matrix bench: {page, fast} x {greedy, costbenefit} x three
 * write-heavy workloads (sequential wrap-around, skewed hot-range,
 * fig14-style MSR usr_0), reporting exact WAF, GC migrations, erases,
 * merge counts and read p50/p99 per cell.
 *
 * Every cell is an independent simulation (own SsdSim, own trace
 * replay); cells run under the deterministic, statically partitioned
 * util::parallelFor into per-cell result slots and are printed
 * sequentially, so stdout and the --out DIR metrics.json and
 * spans.jsonl are byte-identical at any --threads N. Spans are only
 * collected for one cell (fast / greedy / fig14) to keep the trace
 * small.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_support.hh"
#include "ssd/ftl/ftl_factory.hh"
#include "ssd/read_cost.hh"
#include "ssd/ssd_sim.hh"
#include "trace/msr_workloads.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace flash;

namespace
{

/** A deliberately small device the merges actually stress. */
ssd::SsdConfig
smallConfig()
{
    ssd::SsdConfig cfg;
    cfg.channels = 2;
    cfg.chipsPerChannel = 1;
    cfg.diesPerChip = 1;
    cfg.planesPerDie = 2;
    cfg.blocksPerPlane = 48;
    cfg.pagesPerBlock = 64;
    cfg.pageKb = 4;
    cfg.overprovision = 0.25; // 12 spare blocks/plane: both FTLs fit
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    util::Args args(argc, argv);
    const int threads = bench::threadsArg(args);
    const int requests = bench::requestsArg(args, 6000);
    bench::OutDir out(args, /*spans=*/true);

    bench::header("FTL matrix",
                  "page vs FAST hybrid FTL x greedy vs cost-benefit GC "
                  "on three write-heavy workloads",
                  "n/a (engineering benchmark: mapping-layer A/B)");

    const ssd::SsdConfig base = smallConfig();
    ssd::SsdTiming timing;
    timing.readBaseUs = 5.0;
    timing.decodeUs = 2.0;

    const std::int64_t page_bytes =
        static_cast<std::int64_t>(base.pageKb) * 1024;
    const std::int64_t logical_pages = base.logicalPages();

    // The three workload traces, generated once and shared read-only
    // by every cell.
    std::vector<std::string> workload_names{"sequential", "skewed",
                                            "fig14"};
    std::vector<std::vector<trace::TraceRecord>> traces(3);

    {
        // sequential: wrap-around sequential writes with occasional
        // reads of an already-written page (switch-merge best case).
        util::Rng rng(0xf71a);
        std::int64_t next = 0;
        std::vector<trace::TraceRecord> tr;
        tr.reserve(static_cast<std::size_t>(requests));
        for (int i = 0; i < requests; ++i) {
            trace::TraceRecord r;
            r.timestampUs = 50.0 * i;
            if (i % 4 == 3 && next > 0) {
                r.isRead = true;
                r.offsetBytes = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(
                        rng.uniformInt(static_cast<std::uint64_t>(next)))
                    % logical_pages * page_bytes);
            } else {
                r.isRead = false;
                r.offsetBytes = static_cast<std::uint64_t>(
                    (next % logical_pages) * page_bytes);
                ++next;
            }
            r.sizeBytes = static_cast<std::uint32_t>(page_bytes);
            tr.push_back(r);
        }
        traces[0] = std::move(tr);
    }
    {
        // skewed: 90% of accesses hit the hottest 10% of the span,
        // 70% writes (the RW-log / cost-benefit stress case).
        util::Rng rng(0x5e3d);
        const std::int64_t hot = std::max<std::int64_t>(
            1, logical_pages / 10);
        std::vector<trace::TraceRecord> tr;
        tr.reserve(static_cast<std::size_t>(requests));
        for (int i = 0; i < requests; ++i) {
            trace::TraceRecord r;
            r.timestampUs = 50.0 * i;
            r.isRead = rng.uniform() >= 0.7;
            const bool in_hot = rng.uniform() < 0.9;
            const std::int64_t span = in_hot ? hot : logical_pages;
            const std::int64_t page = static_cast<std::int64_t>(
                rng.uniformInt(static_cast<std::uint64_t>(span)));
            r.offsetBytes =
                static_cast<std::uint64_t>(page * page_bytes);
            r.sizeBytes = static_cast<std::uint32_t>(page_bytes);
            tr.push_back(r);
        }
        traces[1] = std::move(tr);
    }
    {
        // fig14-style: the MSR-like usr_0 generator, as replayed by
        // bench_fig14 (mixed sizes, sequential runs, hot data).
        auto spec = trace::msrWorkload("usr_0");
        spec.meanInterarrivalUs *= 0.5;
        traces[2] = trace::generateTrace(
            spec, static_cast<std::size_t>(requests), 42);
    }

    // The 12-cell matrix: index = (ftl * 2 + policy) * 3 + workload.
    const std::vector<ssd::FtlKind> ftls{ssd::FtlKind::Page,
                                         ssd::FtlKind::Fast};
    const std::vector<ssd::GcVictimPolicy> policies{
        ssd::GcVictimPolicy::Greedy, ssd::GcVictimPolicy::CostBenefit};
    const int cells =
        static_cast<int>(ftls.size() * policies.size() * traces.size());

    std::vector<ssd::SimReport> reports(
        static_cast<std::size_t>(cells));
    util::parallelFor(threads, cells, [&](int i) {
        const int wi = i % 3;
        const int pi = (i / 3) % 2;
        const int fi = i / 6;
        ssd::SsdConfig cfg = base;
        cfg.ftl = ftls[static_cast<std::size_t>(fi)];
        cfg.gcPolicy = policies[static_cast<std::size_t>(pi)];
        ssd::FixedReadCost cost(2);
        ssd::SsdSim sim(cfg, timing, cost, 1);
        // Spans for exactly one cell: fast / greedy / fig14. One
        // writer, written after the barrier — deterministic bytes.
        if (cfg.ftl == ssd::FtlKind::Fast && pi == 0 && wi == 2)
            sim.setSpanTrace(out.spans());
        ssd::SimReport r =
            sim.run(traces[static_cast<std::size_t>(wi)]);
        r.policy = std::string(ssd::ftlKindName(cfg.ftl)) + "."
            + ssd::gcPolicyName(cfg.gcPolicy) + "."
            + workload_names[static_cast<std::size_t>(wi)];
        reports[static_cast<std::size_t>(i)] = std::move(r);
    });

    util::TextTable table;
    table.header({"ftl", "gc", "workload", "writes", "waf", "migrated",
                  "erases", "merges s/p/f", "read p50", "read p99"});
    for (int i = 0; i < cells; ++i) {
        const ssd::SimReport &r = reports[static_cast<std::size_t>(i)];
        const int wi = i % 3;
        const int pi = (i / 3) % 2;
        const int fi = i / 6;
        const auto count = [&r](const char *name) {
            return util::fmtInt(
                static_cast<std::int64_t>(r.metrics.counter(name)));
        };
        table.row(
            {std::string(
                 ssd::ftlKindName(ftls[static_cast<std::size_t>(fi)])),
             std::string(ssd::gcPolicyName(
                 policies[static_cast<std::size_t>(pi)])),
             workload_names[static_cast<std::size_t>(wi)],
             count("ftl.host_writes"), util::fmt(r.waf(), 3),
             count("ftl.migrated_pages"), count("ftl.erases"),
             count("ftl.merge.switch") + "/" + count("ftl.merge.partial")
                 + "/" + count("ftl.merge.full"),
             util::fmt(r.readLatencyUs.percentile(0.50), 0),
             util::fmt(r.readLatencyUs.percentile(0.99), 0)});
    }
    table.print(std::cout);

    if (std::ostream *metrics_file = out.open("metrics.json")) {
        *metrics_file << "{\"cells\": {";
        for (int i = 0; i < cells; ++i) {
            const ssd::SimReport &r =
                reports[static_cast<std::size_t>(i)];
            *metrics_file << (i ? ", " : "") << '"'
                          << util::jsonEscape(r.policy) << "\": ";
            r.writeJson(*metrics_file);
        }
        *metrics_file << "}}\n";
    }

    bench::footer("the FAST hybrid trades mapping-table footprint for "
                  "merge write amplification: sequential wraps switch-"
                  "merge for free, skewed writes pay full merges; "
                  "cost-benefit shifts GC toward old, empty blocks");
    return 0;
}
