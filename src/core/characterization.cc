#include "core/characterization.hh"

#include <algorithm>
#include <cmath>

#include "core/error_difference.hh"
#include "nandsim/oracle.hh"
#include "nandsim/read_seq.hh"
#include "nandsim/sense_kernel.hh"
#include "nandsim/snapshot.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace flash::core
{

namespace
{

std::vector<CharCondition>
defaultConditions()
{
    std::vector<CharCondition> out;
    for (std::uint32_t pe : {0u, 1000u, 3000u, 5000u}) {
        for (double hours : {24.0, 720.0, 4380.0, 8760.0})
            out.push_back({pe, hours});
    }
    return out;
}

/** fatal() unless @p cond's room-equivalent hours are finite and >= 0. */
void
checkCondition(const CharCondition &cond)
{
    util::fatalIf(!std::isfinite(cond.effRetentionHours)
                      || cond.effRetentionHours < 0.0,
                  "characterizer: condition retention hours must be finite "
                  "and >= 0");
}

/**
 * Real hours at @p temp_band_c that age a block by @p cond's
 * room-equivalent hours; fatal() unless the condition is valid, the
 * band is a temperature and those hours are finite.
 */
double
rawHours(const nand::VoltageModel &model, const CharCondition &cond,
         double temp_band_c)
{
    checkCondition(cond);
    util::fatalIf(!std::isfinite(temp_band_c) || temp_band_c <= -273.15,
                  "characterizer: band temperature must be finite and above "
                  "absolute zero");
    const double hours =
        cond.effRetentionHours / model.arrheniusFactor(temp_band_c);
    util::fatalIf(!std::isfinite(hours),
                  "characterizer: condition's retention overflows at this "
                  "band temperature");
    return hours;
}

/**
 * Fit @p c's tables from its d/Vopt samples and the per-boundary
 * (sentinel optimal, boundary optimal) samples @p xs / @p ys.
 */
void
fitTables(Characterization &c, const std::vector<std::vector<double>> &xs,
          const std::vector<std::vector<double>> &ys, int states)
{
    c.samples = c.dSamples.size();
    const auto [dmin, dmax] =
        std::minmax_element(c.dSamples.begin(), c.dSamples.end());
    util::fatalIf(c.dSamples.empty() || *dmax - *dmin < 1e-9,
                  "characterizer: sentinel error-difference samples are "
                  "degenerate; too few sentinel cells for this geometry "
                  "(raise SentinelConfig::ratio) or conditions too mild");
    c.dToVopt = util::polyfit(c.dSamples, c.voptSamples,
                              static_cast<std::size_t>(
                                  FactoryCharacterizer::kPolyDegree));
    c.dFitRmse = util::polyfitRmse(c.dToVopt, c.dSamples, c.voptSamples);

    c.crossVoltage.resize(static_cast<std::size_t>(states));
    for (int k = 1; k < states; ++k) {
        c.crossVoltage[static_cast<std::size_t>(k)] = util::linearFit(
            xs[static_cast<std::size_t>(k)], ys[static_cast<std::size_t>(k)]);
    }
}

} // namespace

nand::BlockAge
applyCondition(nand::Chip &chip, int block, const CharCondition &cond,
               double temp_band_c)
{
    const double hours = rawHours(chip.model(), cond, temp_band_c);
    chip.setPeCycles(block, cond.peCycles);
    chip.refresh(block);
    // Age so the effective hours land on the condition while the
    // recorded retention temperature is the band's.
    chip.age(block, hours, temp_band_c);
    return chip.blockAge(block);
}

FactoryCharacterizer::FactoryCharacterizer(CharOptions options)
    : options_(std::move(options))
{
    if (options_.conditions.empty())
        options_.conditions = defaultConditions();
    util::fatalIf(options_.wordlineStride < 1,
                  "characterizer: stride must be >= 1");
    util::fatalIf(options_.threads < 1,
                  "characterizer: threads must be >= 1");
    for (const CharCondition &c : options_.conditions)
        checkCondition(c);
}

Characterization
FactoryCharacterizer::run(nand::Chip &chip, double temp_band_c) const
{
    return std::move(runBands(chip, {temp_band_c}).front());
}

std::vector<Characterization>
FactoryCharacterizer::runBands(nand::Chip &chip,
                               const std::vector<double> &band_temps) const
{
    util::fatalIf(band_temps.empty(), "characterizer: no bands given");
    const auto &geom = chip.geometry();
    const int block = kBlock;
    const auto &conds = options_.conditions;
    for (const double t : band_temps) {
        for (const CharCondition &c : conds)
            rawHours(chip.model(), c, t);
    }
    const int k_s = resolveSentinelBoundary(geom, options_.sentinel);
    const auto overlay = makeOverlay(geom, options_.sentinel);
    util::fatalIf(overlay.count <= 0,
                  "characterizer: empty sentinel overlay");
    const auto defaults = chip.model().defaultVoltages();
    const int v_s = defaults[static_cast<std::size_t>(k_s)];
    const nand::OracleSearch oracle;

    chip.programBlock(block, chip.seed() ^ 0xc4a7ULL, overlay);

    // Every band's conditions as block ages, band-major, set through
    // the chip's own mutators; the sweep below senses at these ages
    // without changing the chip.
    const nand::BlockAge saved = chip.blockAge(block);
    std::vector<nand::BlockAge> ages;
    for (const double t : band_temps) {
        for (const CharCondition &c : conds)
            ages.push_back(applyCondition(chip, block, c, t));
    }
    chip.setBlockAge(block, saved);

    std::vector<int> wls;
    for (int wl = 0; wl < geom.wordlinesPerBlock();
         wl += options_.wordlineStride) {
        wls.push_back(wl);
    }
    std::vector<nand::ReadClock> clocks;
    for (std::size_t ci = 0; ci < conds.size(); ++ci)
        clocks.emplace_back(util::hashCombine(kReadStream, ci));

    /** Measurements of one wordline at one (band, condition) age. */
    struct WlSample
    {
        double d = 0.0;
        std::vector<double> offsets; ///< 1-based by boundary
    };

    // One pass per wordline senses its data region and its sentinel
    // range at every age. Each read's noise seed derives from
    // (kReadStream, condition, wordline) alone, so the wordlines can
    // run on any number of threads; samples[j * wls + i] is age j of
    // wordline i.
    const auto nb = static_cast<std::size_t>(geom.states());
    std::vector<WlSample> samples(ages.size() * wls.size());
    util::parallelFor(
        options_.threads, static_cast<int>(wls.size()), [&](int i) {
            const int wl = wls[static_cast<std::size_t>(i)];
            std::vector<nand::WordlineSnapshot::AgedRead> data, sent;
            for (std::size_t j = 0; j < ages.size(); ++j) {
                nand::ReadSeq seq =
                    clocks[j % conds.size()].session(block, wl);
                data.push_back({ages[j], seq.next()});
                sent.push_back({ages[j], seq.next()});
            }
            const nand::SenseKernel kernel(chip, block, wl);
            const auto data_snaps = nand::WordlineSnapshot::senseAges(
                kernel, data, 0, geom.dataBitlines);
            const auto sent_snaps = nand::WordlineSnapshot::senseAges(
                kernel, sent, overlay.start, overlay.start + overlay.count);
            for (std::size_t j = 0; j < ages.size(); ++j) {
                const auto opts = oracle.optimalOffsets(data_snaps[j],
                                                        defaults);
                WlSample &s =
                    samples[j * wls.size() + static_cast<std::size_t>(i)];
                s.d = countSentinelErrors(sent_snaps[j], k_s, v_s).dRate();
                s.offsets.assign(nb, 0.0);
                for (int k = 1; k < geom.states(); ++k) {
                    s.offsets[static_cast<std::size_t>(k)] =
                        opts[static_cast<std::size_t>(k)].offset;
                }
            }
        });

    // Each band's fits from its samples in condition-major, wordline
    // order, the same at any thread count.
    std::vector<Characterization> out;
    for (std::size_t b = 0; b < band_temps.size(); ++b) {
        Characterization c;
        c.sentinelBoundary = k_s;
        c.tempBandC = band_temps[b];
        // Per-boundary (sentinel optimal, boundary optimal) samples.
        std::vector<std::vector<double>> xs(nb), ys(nb);
        const auto first = samples.begin()
            + static_cast<std::ptrdiff_t>(b * conds.size() * wls.size());
        const auto last =
            first + static_cast<std::ptrdiff_t>(conds.size() * wls.size());
        for (auto it = first; it != last; ++it) {
            const double opt_s = it->offsets[static_cast<std::size_t>(k_s)];
            c.dSamples.push_back(it->d);
            c.voptSamples.push_back(opt_s);
            for (int k = 1; k < geom.states(); ++k) {
                xs[static_cast<std::size_t>(k)].push_back(opt_s);
                ys[static_cast<std::size_t>(k)].push_back(
                    it->offsets[static_cast<std::size_t>(k)]);
            }
        }
        fitTables(c, xs, ys, geom.states());
        out.push_back(std::move(c));
    }
    return out;
}

const Characterization &
selectBand(const std::vector<Characterization> &bands, double ret_temp_c)
{
    util::fatalIf(bands.empty(), "selectBand: empty band set");
    const Characterization *best = &bands.front();
    double best_dist = std::fabs(best->tempBandC - ret_temp_c);
    for (const auto &b : bands) {
        const double dist = std::fabs(b.tempBandC - ret_temp_c);
        if (dist < best_dist) {
            best = &b;
            best_dist = dist;
        }
    }
    return *best;
}

} // namespace flash::core
