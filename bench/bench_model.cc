/**
 * @file
 * Microbenchmark of the online voltage model's read-time solve.
 *
 *   bench_model [--reps N] [--out DIR]
 *
 * Two kernels, each timed as scalar-oracle vs incremental and checked
 * for identical predictions before any timing is trusted:
 *
 *   model_predict  per-read prediction cost: a fresh 4x4 elimination
 *                  on every call (predictFresh) vs the cached solve
 *                  the read path pays (predict), invalidated only by
 *                  new observations. Same moments, bit-identical
 *                  output.
 *   model_refit    incorporating the observation history: rebuild a
 *                  predictor from all raw observations and solve, vs
 *                  solving from the incrementally maintained moments.
 *                  The exact-sum moments make both orders the same
 *                  multiset, so the predictions must agree exactly.
 *
 * The DIR/model.json export ({"kernels": {name: {scalar_ns, packed_ns,
 * speedup}}}) matches bench_kernels so tools/bench_compare can gate
 * it: CI fails the build when the cached/incremental path stops
 * paying for itself.
 */

#include <chrono>
#include <cmath>
#include <functional>
#include <vector>

#include "bench_support.hh"
#include "core/voltage_model.hh"
#include "util/metrics.hh"
#include "util/rng.hh"

using namespace flash;

namespace
{

/** Best-of-@p reps wall time of @p fn in nanoseconds. */
double
timeNs(int reps, const std::function<void()> &fn)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count();
        if (r == 0 || ns < best)
            best = ns;
    }
    return best;
}

struct KernelResult
{
    std::string name;
    double scalarNs = 0.0;
    double packedNs = 0.0;

    double speedup() const { return scalarNs / packedNs; }
};

/** One synthetic verified observation. */
struct Obs
{
    int block;
    core::BlockEpoch epoch;
    int offset;
};

volatile std::int64_t g_sink; // defeat dead-code elimination

} // namespace

int
main(int argc, char **argv)
{
    bench::acceptFlags(argc, argv, {"reps", "out"});
    bench::OutDir out(argc, argv);
    const int reps =
        static_cast<int>(bench::longArg(argc, argv, "reps", 5, 1, 100000));

    bench::header("Voltage-model microbenchmark",
                  "cached/incremental solve vs from-scratch oracle",
                  "n/a (engineering benchmark)");

    // Synthetic observation history: 8 blocks, epochs spread over the
    // aging space, offsets linear in the model's features plus small
    // integer noise — the shape a drifting chip produces.
    constexpr int kBlocks = 8;
    constexpr int kObs = 512;
    util::Rng rng(0x0de1);
    std::vector<Obs> history;
    history.reserve(kObs);
    for (int i = 0; i < kObs; ++i) {
        Obs o;
        o.block = static_cast<int>(rng.uniformInt(kBlocks));
        o.epoch.peCycles =
            static_cast<std::uint32_t>(500 + 500 * rng.uniformInt(10));
        o.epoch.retentionHours =
            static_cast<double>(rng.uniformInt(8760));
        o.epoch.retentionTempC =
            25.0 + static_cast<double>(rng.uniformInt(4)) * 10.0;
        const double x1 = o.epoch.peCycles / 1000.0;
        const double x2 = std::log1p(o.epoch.retentionHours);
        const double x3 = (o.epoch.retentionTempC - 25.0) / 10.0;
        o.offset = static_cast<int>(
            std::lround(-4.0 * x1 - 3.0 * x2 - 1.5 * x3))
            + static_cast<int>(rng.uniformInt(5)) - 2;
        history.push_back(o);
    }
    const core::BlockEpoch query{4000, 4380.0, 35.0};

    core::VoltagePredictor trained;
    for (const Obs &o : history)
        trained.observe(o.block, o.epoch, o.offset);

    std::vector<KernelResult> results;

    // --- model_predict ----------------------------------------------
    {
        // Touch every chunk per pass so the cached path pays its
        // lock + lookup, not just a hot single-chunk solve.
        std::int64_t scalar_acc = 0, packed_acc = 0;
        const auto scalar = [&] {
            std::int64_t acc = 0;
            for (int r = 0; r < 16; ++r) {
                for (int b = 0; b < kBlocks; ++b)
                    acc += trained.predictFresh(b, query).sentinelOffset;
            }
            scalar_acc = acc;
            g_sink = acc;
        };
        const auto packed = [&] {
            std::int64_t acc = 0;
            for (int r = 0; r < 16; ++r) {
                for (int b = 0; b < kBlocks; ++b)
                    acc += trained.predict(b, query).sentinelOffset;
            }
            packed_acc = acc;
            g_sink = acc;
        };
        scalar();
        packed();
        util::fatalIf(scalar_acc != packed_acc,
                      "model_predict: cached solve diverges from fresh");
        results.push_back({"model_predict", timeNs(reps, scalar),
                           timeNs(reps, packed)});
    }

    // --- model_refit ------------------------------------------------
    {
        double scalar_pred = 0.0, packed_pred = 0.0;
        const auto scalar = [&] {
            core::VoltagePredictor fresh;
            for (const Obs &o : history)
                fresh.observe(o.block, o.epoch, o.offset);
            scalar_pred = fresh.predictFresh(0, query).predicted;
            g_sink = static_cast<std::int64_t>(scalar_pred * 1e6);
        };
        const auto packed = [&] {
            packed_pred = trained.predictFresh(0, query).predicted;
            g_sink = static_cast<std::int64_t>(packed_pred * 1e6);
        };
        scalar();
        packed();
        util::fatalIf(std::abs(scalar_pred - packed_pred) > 1e-9,
                      "model_refit: batch refit diverges from "
                      "incremental moments");
        results.push_back({"model_refit", timeNs(reps, scalar),
                           timeNs(reps, packed)});
    }

    util::TextTable table;
    table.header({"kernel", "scalar (us)", "packed (us)", "speedup"});
    for (const auto &r : results) {
        table.row({r.name, util::fmt(r.scalarNs / 1000.0, 1),
                   util::fmt(r.packedNs / 1000.0, 1),
                   util::fmt(r.speedup(), 2) + "x"});
    }
    table.print(std::cout);

    if (std::ostream *json = out.open("model.json")) {
        *json << "{\"observations\": " << kObs << ", \"reps\": " << reps
            << ", \"kernels\": {";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto &r = results[i];
            *json << (i ? ", " : "") << '"' << r.name
                << "\": {\"scalar_ns\": " << util::jsonNumber(r.scalarNs)
                << ", \"packed_ns\": " << util::jsonNumber(r.packedNs)
                << ", \"speedup\": " << util::jsonNumber(r.speedup())
                << "}";
        }
        *json << "}}\n";
    }

    bench::footer("the cached solve amortizes the 4x4 elimination "
                  "across reads of an unchanged chunk; the refit row "
                  "is what incremental moments save over replaying "
                  "the observation history");
    return 0;
}
