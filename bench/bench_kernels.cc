/**
 * @file
 * Microbenchmark of the repo's fast paths against the reference
 * oracles they replaced.
 *
 *   bench_kernels [--reps N] [--out DIR]
 *
 * Nine rows, plus sense_dispatch on a CPU that runs a wider level
 * than the baseline, each timed as reference ("scalar") vs fast path
 * ("packed") and checked for identical results before any timing is
 * trusted:
 *
 *   snapshot_build    one data-region WordlineSnapshot: per-cell
 *                     trueState + Chip::cellVth + std::lround into
 *                     per-state bins vs the chunked SenseKernel pass.
 *                     Every read session, characterization and
 *                     accuracy wordline pays it.
 *   sense_dispatch    the same snapshot sensed by the baseline
 *                     (SSE2) kernel vs the level this CPU selects
 *                     (util/cpu_level.hh); the two snapshots must be
 *                     equal. Left out when the baseline is selected,
 *                     so no row times a path against itself.
 *   sense_ages        the factory sweep's senses of one wordline:
 *                     16 data-region snapshots at the default
 *                     characterization grid, one WordlineSnapshot per
 *                     age after Chip::setBlockAge vs one multi-age
 *                     WordlineSnapshot::senseAges sweep that draws the
 *                     cells' age-independent terms once. All 16 pairs
 *                     must be equal.
 *   sense_count_page  one read session (4 voltage sets) over the data
 *                     region: per-voltage Chip::readBits + byte
 *                     compare vs one WordlineSnapshot and its
 *                     pageErrors at each set — the read session's
 *                     sense+count path.
 *   soft_agreement    a 3-bit soft read (7 senses) of the data
 *                     region: per-cell Chip::readBits at each shifted
 *                     voltage set + byte agreement counts vs
 *                     ecc::softReadRange on the kernel's chunk steps.
 *                     Same hard bits, and |LLR| increasing in the
 *                     reference agreement count.
 *   model_predict     per-read voltage-model prediction: a fresh 4x4
 *                     elimination on every call (predictFresh) vs the
 *                     cached solve the read path pays (predict),
 *                     invalidated only by new observations.
 *   model_refit       incorporating the observation history: rebuild
 *                     a predictor from all raw observations and
 *                     solve, vs solving from the incrementally
 *                     maintained moments. The exact-sum moments make
 *                     both orders the same multiset, so every
 *                     chunk's prediction must agree exactly.
 *   metrics_update    SsdSim's per-read registry updates (4 counters,
 *                     7 histograms, one of them per channel): by name,
 *                     building the channel's name each time, vs
 *                     through handles bound once per registry. Both
 *                     registries must export the same bytes.
 *   histogram_observe one run's worth of latency observations into a
 *                     LatencyHistogram: the bin and the ExactSum limb
 *                     position through frexp/ldexp (the add it
 *                     replaced) vs read from the IEEE-754 bits. Bins,
 *                     count, min, max and the sum's limbs must agree.
 *   ftl_unpack        the FTLs' packed page -> (plane, block, page) on
 *                     the default drive: div/mod by the run-time
 *                     geometry vs PageLayout::unpack's reciprocal
 *                     multiplies (util::FastDiv). Every address must
 *                     agree.
 *
 * The DIR/kernels.json export ({"cells", "observations", "reps",
 * "kernels": {name: {scalar_ns, packed_ns, speedup}}}) feeds
 * tools/bench_compare, which CI uses to fail the build when a fast
 * path regresses below its reference.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_support.hh"
#include "core/characterization.hh"
#include "core/sentinel_layout.hh"
#include "core/voltage_predictor.hh"
#include "ecc/soft_sensing.hh"
#include "nandsim/snapshot.hh"
#include "ssd/ftl/block_table.hh"
#include "util/cpu_level.hh"
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

/**
 * Runs @p scalar and @p packed once, fails unless @p same then holds,
 * and only then times both.
 */
KernelResult
measure(const std::string &name, int reps,
        const std::function<void()> &scalar,
        const std::function<void()> &packed,
        const std::function<bool()> &same)
{
    scalar();
    packed();
    util::fatalIf(!same(), name + ": fast path diverges from its reference");
    return {name, timeNs(reps, scalar), timeNs(reps, packed)};
}

/** One synthetic verified voltage-model observation. */
struct Obs
{
    int block;
    core::BlockEpoch epoch;
    int offset;
};

volatile std::uint64_t g_sink; // defeat dead-code elimination

/**
 * LatencyHistogram::add as it was: the bin through frexp, the sum's
 * mantissa and limb position through frexp/ldexp.
 */
struct ReferenceHistogram
{
    std::vector<std::uint64_t> bins;
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::uint64_t, util::ExactSum::kLimbs> limbs{};

    void
    deposit(int limb, std::uint64_t v)
    {
        for (; v != 0 && limb < util::ExactSum::kLimbs; ++limb) {
            std::uint64_t &slot = limbs[static_cast<std::size_t>(limb)];
            slot += v;
            v = slot < v ? 1 : 0;
        }
    }

    void
    add(double v)
    {
        constexpr int kSub = util::LatencyHistogram::kSubBins;
        if (v < 0.0 || !std::isfinite(v))
            v = 0.0;
        int bin = 0;
        if (v >= 1.0) {
            int e = 0;
            const double frac = std::frexp(v, &e);
            bin = 1 + std::min(e - 1, 63) * kSub
                + std::min(kSub - 1,
                           static_cast<int>((frac - 0.5) * 2.0 * kSub));
        }
        if (static_cast<std::size_t>(bin) >= bins.size())
            bins.resize(static_cast<std::size_t>(bin) + 1, 0);
        ++bins[static_cast<std::size_t>(bin)];
        min = count == 0 ? v : std::min(min, v);
        max = count == 0 ? v : std::max(max, v);
        ++count;
        if (v > 0.0) {
            int e = 0;
            const double frac = std::frexp(v, &e);
            const auto m = static_cast<std::uint64_t>(std::ldexp(frac, 53));
            const int pos = e - 53 + util::ExactSum::kBiasBits;
            const unsigned __int128 wide =
                static_cast<unsigned __int128>(m) << (pos & 63);
            deposit(pos >> 6, static_cast<std::uint64_t>(wide));
            deposit((pos >> 6) + 1, static_cast<std::uint64_t>(wide >> 64));
        }
    }
};

} // namespace

int
main(int argc, char **argv)
{
    util::Args args(argc, argv);
    const int reps = args.number<int>("reps", 5, 1, 100000);
    bench::OutDir out(args);

    bench::header("Kernel microbenchmark",
                  "packed sensing kernels and cached model solves vs "
                  "their reference oracles",
                  "n/a (engineering benchmark)");

    auto chip = bench::makeTlcChip();
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    chip.programBlock(bench::kEvalBlock, bench::kChipSeed ^ 0xbe,
                      overlay);
    bench::ageBlock(chip, bench::kEvalBlock, 5000);

    const int block = bench::kEvalBlock;
    const int wl = 8;
    const int page = chip.grayCode().msbPage();
    const int cells = chip.geometry().dataBitlines;
    const auto defaults = chip.model().defaultVoltages();

    // A 4-attempt retry session: defaults plus three stepped sets.
    std::vector<std::vector<int>> sets(4, defaults);
    for (int i = 1; i < 4; ++i) {
        for (std::size_t k = 1; k < sets[static_cast<std::size_t>(i)].size();
             ++k) {
            sets[static_cast<std::size_t>(i)][k] -= 4 * i;
        }
    }

    std::vector<KernelResult> results;

    // --- snapshot_build ---------------------------------------------
    {
        const int lo = chip.model().vthMin();
        const int hi = chip.model().vthMax();
        const auto states =
            static_cast<std::size_t>(chip.geometry().states());
        const auto width = static_cast<std::size_t>(hi - lo + 1);
        std::vector<std::vector<std::uint64_t>> scalar_bins;
        std::optional<nand::WordlineSnapshot> packed_snap;
        const auto scalar = [&] {
            std::vector<std::vector<std::uint64_t>> bins(
                states, std::vector<std::uint64_t>(width));
            const nand::WordlineContext ctx =
                chip.wordlineContext(block, wl);
            for (int col = 0; col < cells; ++col) {
                const int s = chip.trueState(block, wl, col);
                const int d = static_cast<int>(std::lround(
                    chip.cellVth(ctx, block, wl, col, s, 3000)));
                ++bins[static_cast<std::size_t>(s)]
                      [static_cast<std::size_t>(std::clamp(d, lo, hi) - lo)];
            }
            g_sink = bins[0][width / 2];
            scalar_bins = std::move(bins);
        };
        const auto packed = [&] {
            packed_snap.emplace(
                nand::WordlineSnapshot::dataRegion(chip, block, wl, 3000));
            g_sink = packed_snap->cells();
        };
        const auto same = [&] {
            for (std::size_t s = 0; s < states; ++s) {
                for (int v = lo; v <= hi; ++v) {
                    if (packed_snap->stateCellsInRange(static_cast<int>(s),
                                                       v - 1, v)
                        != scalar_bins[s][static_cast<std::size_t>(v - lo)])
                        return false;
                }
            }
            return true;
        };
        results.push_back(
            measure("snapshot_build", reps, scalar, packed, same));
    }

    // --- sense_dispatch ---------------------------------------------
    if (util::selectedCpuLevel() != util::CpuLevel::Baseline) {
        const nand::SenseKernel baseline(chip, block, wl,
                                         util::CpuLevel::Baseline);
        const nand::SenseKernel selected(chip, block, wl);
        std::optional<nand::WordlineSnapshot> baseline_snap, selected_snap;
        const auto scalar = [&] {
            baseline_snap.emplace(baseline, 3000, 0, cells);
            g_sink = baseline_snap->cells();
        };
        const auto packed = [&] {
            selected_snap.emplace(selected, 3000, 0, cells);
            g_sink = selected_snap->cells();
        };
        std::cout << "sense_dispatch: baseline vs "
                  << util::cpuLevelName(util::selectedCpuLevel()) << "\n";
        results.push_back(
            measure("sense_dispatch", reps, scalar, packed,
                    [&] { return *baseline_snap == *selected_snap; }));
    }

    // --- sense_ages -------------------------------------------------
    {
        // The default grid's ages, set through the chip's mutators as
        // the characterizer sets them; the block's age is restored.
        const nand::BlockAge saved = chip.blockAge(block);
        const core::FactoryCharacterizer grid{core::CharOptions{}};
        std::vector<nand::WordlineSnapshot::AgedRead> reads;
        for (const core::CharCondition &c : grid.options().conditions) {
            reads.push_back({core::applyCondition(chip, block, c, 25.0),
                             4000 + reads.size()});
        }
        chip.setBlockAge(block, saved);
        std::vector<nand::WordlineSnapshot> one_by_one, swept;
        const auto scalar = [&] {
            std::vector<nand::WordlineSnapshot> snaps;
            for (const auto &r : reads) {
                chip.setBlockAge(block, r.age);
                snaps.push_back(nand::WordlineSnapshot::dataRegion(
                    chip, block, wl, r.readSeq));
            }
            chip.setBlockAge(block, saved);
            g_sink = snaps.back().cells();
            one_by_one = std::move(snaps);
        };
        const auto packed = [&] {
            const nand::SenseKernel kernel(chip, block, wl);
            swept = nand::WordlineSnapshot::senseAges(kernel, reads, 0, cells);
            g_sink = swept.back().cells();
        };
        results.push_back(measure("sense_ages", reps, scalar, packed,
                                  [&] { return one_by_one == swept; }));
    }

    // --- sense_count_page -------------------------------------------
    {
        // Session semantics (see ReadContext): one noise draw per
        // session, reused across every voltage set. The byte-wise
        // chip API has no way to reuse a sense, so the reference
        // rehashes every cell once per voltage set; the session senses
        // one snapshot and counts each set's errors from its bins.
        std::uint64_t scalar_errs = 0, packed_errs = 0;
        const auto scalar = [&] {
            std::vector<std::uint8_t> tb, bits;
            chip.trueBits(block, wl, page, 0, cells, tb);
            std::uint64_t errs = 0;
            for (std::size_t i = 0; i < sets.size(); ++i) {
                chip.readBits(block, wl, page, sets[i], 1000, 0, cells,
                              bits);
                for (std::size_t c = 0; c < bits.size(); ++c)
                    errs += bits[c] != tb[c];
            }
            scalar_errs = errs;
            g_sink = errs;
        };
        const auto packed = [&] {
            const auto snap =
                nand::WordlineSnapshot::dataRegion(chip, block, wl, 1000);
            std::uint64_t errs = 0;
            for (std::size_t i = 0; i < sets.size(); ++i)
                errs += snap.pageErrors(page, sets[i]);
            packed_errs = errs;
            g_sink = errs;
        };
        results.push_back(measure("sense_count_page", reps, scalar, packed,
                                  [&] { return scalar_errs == packed_errs; }));
    }

    // --- soft_agreement ---------------------------------------------
    {
        // A 3-bit soft read of the data region. The reference senses
        // cell by cell: Chip::readBits at the center voltages, then at
        // each of the six shifted sets (-3..-1, +1..+3 steps, read
        // seqs base + 1..6), counting agreements with the center in
        // bytes. The fast path hashes each cell's static Vth once.
        // Both must give the same hard bits, and every cell's |LLR|
        // must be an increasing function of its reference agreement.
        constexpr double kDelta = 6.0;
        constexpr std::uint64_t kBase = 2000;
        std::vector<std::uint8_t> hard;
        std::vector<std::uint8_t> agree;
        ecc::SoftReadResult soft;
        const auto scalar = [&] {
            std::vector<std::uint8_t> center, bits;
            chip.readBits(block, wl, page, defaults, kBase, 0, cells, center);
            std::vector<std::uint8_t> count(center.size(), 0);
            std::uint64_t seq = kBase;
            for (int s = -3; s <= 3; ++s) {
                if (s == 0)
                    continue;
                std::vector<int> shifted = defaults;
                for (std::size_t k = 1; k < shifted.size(); ++k)
                    shifted[k] += static_cast<int>(s * kDelta);
                chip.readBits(block, wl, page, shifted, ++seq, 0, cells,
                              bits);
                for (std::size_t i = 0; i < bits.size(); ++i)
                    count[i] = static_cast<std::uint8_t>(
                        count[i] + (bits[i] == center[i]));
            }
            g_sink = count[count.size() / 2];
            hard = std::move(center);
            agree = std::move(count);
        };
        const auto packed = [&] {
            soft = ecc::softReadRange(chip, block, wl, page, defaults,
                                      ecc::SensingMode::Soft3Bit, kDelta,
                                      kBase, 0, cells);
            g_sink = soft.hardBits[soft.hardBits.size() / 2];
        };
        const auto same = [&] {
            if (soft.hardBits != hard)
                return false;
            float mag_of[8] = {};
            for (std::size_t i = 0; i < hard.size(); ++i) {
                const float mag = std::abs(soft.llr[i]);
                if ((soft.llr[i] < 0.0f) != (hard[i] == 1))
                    return false;
                float &m = mag_of[agree[i]];
                if (m == 0.0f)
                    m = mag;
                else if (m != mag)
                    return false;
            }
            float prev = 0.0f;
            for (const float m : mag_of) {
                if (m == 0.0f)
                    continue;
                if (m <= prev)
                    return false;
                prev = m;
            }
            return true;
        };
        results.push_back(
            measure("soft_agreement", reps, scalar, packed, same));
    }

    // --- voltage model ----------------------------------------------
    // Synthetic observation history: 8 blocks, epochs spread over the
    // aging space, offsets linear in the model's features plus small
    // integer noise — the shape a drifting chip produces.
    constexpr int kBlocks = 8;
    constexpr int kObs = 512;
    std::vector<Obs> history;
    {
        util::Rng rng(0x0de1);
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
    }
    const core::BlockEpoch query{4000, 4380.0, 35.0};
    core::VoltagePredictor trained;
    for (const Obs &o : history)
        trained.observe(o.block, o.epoch, o.offset);

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
            g_sink = static_cast<std::uint64_t>(acc);
        };
        const auto packed = [&] {
            std::int64_t acc = 0;
            for (int r = 0; r < 16; ++r) {
                for (int b = 0; b < kBlocks; ++b)
                    acc += trained.predict(b, query).sentinelOffset;
            }
            packed_acc = acc;
            g_sink = static_cast<std::uint64_t>(acc);
        };
        results.push_back(measure("model_predict", reps, scalar, packed,
                                  [&] { return scalar_acc == packed_acc; }));
    }

    // --- model_refit ------------------------------------------------
    {
        // One prediction per chunk, so a divergence in any chunk's
        // moments fails the check.
        const int stride = core::VoltageModelConfig{}.chunkBlocks;
        std::vector<double> scalar_pred, packed_pred;
        const auto predictChunks = [&](const core::VoltagePredictor &p,
                                       std::vector<double> &pred) {
            pred.clear();
            for (int b = 0; b < kBlocks; b += stride)
                pred.push_back(p.predictFresh(b, query).predicted);
            g_sink = static_cast<std::uint64_t>(pred.back() * 1e6);
        };
        const auto scalar = [&] {
            core::VoltagePredictor fresh;
            for (const Obs &o : history)
                fresh.observe(o.block, o.epoch, o.offset);
            predictChunks(fresh, scalar_pred);
        };
        const auto packed = [&] { predictChunks(trained, packed_pred); };
        results.push_back(measure("model_refit", reps, scalar, packed,
                                  [&] { return scalar_pred == packed_pred; }));
    }

    // --- metrics_update ---------------------------------------------
    {
        // A fixed read-op sequence shaped like SsdSim's: the counter
        // deltas and breakdown values a page read records.
        struct ReadOp
        {
            int channel;
            std::uint64_t attempts, senses;
            double attemptUs, latencyUs, queueUs, senseUs, decodeUs,
                xferUs;
        };
        constexpr int kReadOps = 4096;
        constexpr int kChannels = 8;
        std::vector<ReadOp> ops;
        {
            util::Rng rng(0x3e7c);
            for (int i = 0; i < kReadOps; ++i) {
                ReadOp op;
                op.channel = static_cast<int>(rng.uniformInt(kChannels));
                op.attempts = 1 + rng.uniformInt(4);
                op.senses = op.attempts * (3 + rng.uniformInt(2));
                op.senseUs = 50.0 * static_cast<double>(op.senses);
                op.decodeUs = 2.0 * static_cast<double>(op.attempts);
                op.xferUs = 16.0 * static_cast<double>(op.attempts);
                op.queueUs = rng.bernoulli(0.3) ? rng.uniform(0.0, 400.0)
                                                : 0.0;
                op.attemptUs = op.senseUs / static_cast<double>(op.attempts)
                    + 18.0;
                op.latencyUs =
                    op.queueUs + op.senseUs + op.decodeUs + op.xferUs;
                ops.push_back(op);
            }
        }
        std::vector<std::string> queue_names;
        for (int ch = 0; ch < kChannels; ++ch)
            queue_names.push_back("ssd.read.queue_us.ch" + std::to_string(ch));
        util::MetricsRegistry scalar_reg, packed_reg;
        const auto scalar = [&] {
            util::MetricsRegistry m;
            for (const ReadOp &op : ops) {
                m.observe("ssd.read.attempt_us", op.attemptUs);
                m.add("ssd.read.page_ops");
                m.add("ssd.read.attempts", op.attempts);
                m.add("ssd.read.sense_ops", op.senses);
                m.add("ssd.read.assist_reads", 0);
                m.observe("ssd.read.latency_us", op.latencyUs);
                m.observe("ssd.read.queue_us", op.queueUs);
                m.observe("ssd.read.queue_us.ch"
                              + std::to_string(op.channel),
                          op.queueUs);
                m.observe("ssd.read.sense_us", op.senseUs);
                m.observe("ssd.read.decode_us", op.decodeUs);
                m.observe("ssd.read.xfer_us", op.xferUs);
            }
            g_sink = m.counter("ssd.read.page_ops");
            scalar_reg = std::move(m);
        };
        const auto packed = [&] {
            util::MetricsRegistry m;
            util::HistogramHandle attempt_us(m, "ssd.read.attempt_us");
            util::CounterHandle page_ops(m, "ssd.read.page_ops");
            util::CounterHandle attempts(m, "ssd.read.attempts");
            util::CounterHandle sense_ops(m, "ssd.read.sense_ops");
            util::CounterHandle assists(m, "ssd.read.assist_reads");
            util::HistogramHandle latency_us(m, "ssd.read.latency_us");
            util::HistogramHandle queue_us(m, "ssd.read.queue_us");
            std::vector<util::HistogramHandle> queue_us_ch;
            for (const std::string &name : queue_names)
                queue_us_ch.emplace_back(m, name.c_str());
            util::HistogramHandle sense_us(m, "ssd.read.sense_us");
            util::HistogramHandle decode_us(m, "ssd.read.decode_us");
            util::HistogramHandle xfer_us(m, "ssd.read.xfer_us");
            for (const ReadOp &op : ops) {
                attempt_us.observe(op.attemptUs);
                page_ops.add();
                attempts.add(op.attempts);
                sense_ops.add(op.senses);
                assists.add(0);
                latency_us.observe(op.latencyUs);
                queue_us.observe(op.queueUs);
                queue_us_ch[static_cast<std::size_t>(op.channel)].observe(
                    op.queueUs);
                sense_us.observe(op.senseUs);
                decode_us.observe(op.decodeUs);
                xfer_us.observe(op.xferUs);
            }
            g_sink = m.counter("ssd.read.page_ops");
            packed_reg = std::move(m);
        };
        results.push_back(measure(
            "metrics_update", reps, scalar, packed,
            [&] { return scalar_reg.toJson() == packed_reg.toJson(); }));
    }

    // --- histogram_observe ------------------------------------------
    {
        // Latencies shaped like a replay's page ops (µs): zero queue
        // waits, tens to hundreds of µs of service, a millisecond tail.
        constexpr int kValues = 1 << 15;
        std::vector<double> values;
        {
            util::Rng rng(0x4157);
            for (int i = 0; i < kValues; ++i) {
                values.push_back(rng.bernoulli(0.3)
                                     ? 0.0
                                     : rng.uniform(10.0, 400.0)
                                         + (rng.bernoulli(0.02)
                                                ? rng.uniform(1e3, 2e4)
                                                : 0.0));
            }
        }
        ReferenceHistogram scalar_h;
        util::LatencyHistogram packed_h;
        const auto scalar = [&] {
            ReferenceHistogram h;
            for (double v : values)
                h.add(v);
            g_sink = h.count;
            scalar_h = std::move(h);
        };
        const auto packed = [&] {
            util::LatencyHistogram h;
            for (double v : values)
                h.add(v);
            g_sink = h.count();
            packed_h = std::move(h);
        };
        results.push_back(measure(
            "histogram_observe", reps, scalar, packed, [&] {
                return scalar_h.bins == packed_h.bins()
                    && scalar_h.count == packed_h.count()
                    && scalar_h.min == packed_h.min()
                    && scalar_h.max == packed_h.max()
                    && scalar_h.limbs == packed_h.exactSum().limbs();
            }));
    }

    // --- ftl_unpack -------------------------------------------------
    {
        // Read through volatiles so the divisors are run-time values,
        // as the FTLs see them, not constants the compiler divides by
        // multiplying.
        const ssd::SsdConfig cfg;
        volatile int geometry[] = {cfg.totalPlanes(), cfg.blocksPerPlane,
                                   cfg.pagesPerBlock};
        const int planes = geometry[0];
        const int bpp = geometry[1];
        const int ppb = geometry[2];
        const ssd::PageLayout layout(planes, bpp, ppb);
        constexpr int kPages = 1 << 16;
        std::vector<std::int64_t> packed_pages;
        {
            util::Rng rng(0x0bac);
            const auto pages = static_cast<std::uint64_t>(planes) * bpp * ppb;
            for (int i = 0; i < kPages; ++i) {
                packed_pages.push_back(
                    static_cast<std::int64_t>(rng.uniformInt(pages)));
            }
        }
        std::vector<ssd::PhysAddr> scalar_addrs(kPages), packed_addrs(kPages);
        const auto scalar = [&] {
            std::uint64_t sum = 0;
            for (int i = 0; i < kPages; ++i) {
                const std::int64_t n = packed_pages[static_cast<std::size_t>(i)];
                ssd::PhysAddr &a = scalar_addrs[static_cast<std::size_t>(i)];
                a.page = static_cast<int>(n % ppb);
                a.block = static_cast<int>(n / ppb % bpp);
                a.plane = static_cast<int>(n / ppb / bpp);
                sum += static_cast<std::uint64_t>(a.plane + a.block + a.page);
            }
            g_sink = sum;
        };
        const auto packed = [&] {
            std::uint64_t sum = 0;
            for (int i = 0; i < kPages; ++i) {
                ssd::PhysAddr &a = packed_addrs[static_cast<std::size_t>(i)];
                a = layout.unpack(packed_pages[static_cast<std::size_t>(i)]);
                sum += static_cast<std::uint64_t>(a.plane + a.block + a.page);
            }
            g_sink = sum;
        };
        results.push_back(measure("ftl_unpack", reps, scalar, packed, [&] {
            for (int i = 0; i < kPages; ++i) {
                const auto &x = scalar_addrs[static_cast<std::size_t>(i)];
                const auto &y = packed_addrs[static_cast<std::size_t>(i)];
                if (x.plane != y.plane || x.block != y.block
                    || x.page != y.page)
                    return false;
            }
            return true;
        }));
    }

    util::TextTable table;
    table.header({"kernel", "scalar (us)", "packed (us)", "speedup"});
    for (const auto &r : results) {
        table.row({r.name, util::fmt(r.scalarNs / 1000.0, 1),
                   util::fmt(r.packedNs / 1000.0, 1),
                   util::fmt(r.speedup(), 2) + "x"});
    }
    table.print(std::cout);

    if (std::ostream *json = out.open("kernels.json")) {
        *json << "{\"cells\": " << cells << ", \"observations\": " << kObs
            << ", \"reps\": " << reps << ", \"kernels\": {";
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

    bench::footer("every fast path should beat its reference; "
                  "sense_count_page is the read pipeline's hot path, and "
                  "the model rows are what the cached solve and the "
                  "incremental moments save, metrics_update what bound "
                  "handles save per simulated page read, histogram_observe "
                  "and ftl_unpack what the bit-level histogram and "
                  "reciprocal addressing save per page op");
    return 0;
}
