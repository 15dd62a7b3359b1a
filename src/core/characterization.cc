#include "core/characterization.hh"

#include <algorithm>
#include <cmath>

#include "core/error_difference.hh"
#include "nandsim/oracle.hh"
#include "nandsim/read_seq.hh"
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

} // namespace

FactoryCharacterizer::FactoryCharacterizer(CharOptions options)
    : options_(std::move(options))
{
    if (options_.conditions.empty())
        options_.conditions = defaultConditions();
    util::fatalIf(options_.wordlineStride < 1,
                  "characterizer: stride must be >= 1");
    util::fatalIf(options_.polyDegree < 1,
                  "characterizer: polyDegree must be >= 1");
    util::fatalIf(options_.threads < 1,
                  "characterizer: threads must be >= 1");
}

Characterization
FactoryCharacterizer::run(nand::Chip &chip, double temp_band_c) const
{
    const auto &geom = chip.geometry();
    const int block = options_.block;
    const int k_s = resolveSentinelBoundary(geom, options_.sentinel);
    const auto overlay = makeOverlay(geom, options_.sentinel);
    const auto defaults = chip.model().defaultVoltages();
    const int v_s = defaults[static_cast<std::size_t>(k_s)];
    const nand::OracleSearch oracle;

    chip.programBlock(block, chip.seed() ^ 0xc4a7ULL, overlay);
    const nand::BlockAge saved = chip.blockAge(block);

    Characterization out;
    out.sentinelBoundary = k_s;
    out.tempBandC = temp_band_c;

    // Per-boundary (sentinel optimal, boundary optimal) samples.
    const auto nb = static_cast<std::size_t>(geom.states());
    std::vector<std::vector<double>> xs(nb), ys(nb);

    std::vector<int> wls;
    for (int wl = 0; wl < geom.wordlinesPerBlock();
         wl += options_.wordlineStride) {
        wls.push_back(wl);
    }

    /** Per-wordline measurements of one aging condition. */
    struct WlSample
    {
        double d = 0.0;
        std::vector<double> offsets; ///< 1-based by boundary
    };

    for (std::size_t ci = 0; ci < options_.conditions.size(); ++ci) {
        const CharCondition &cond = options_.conditions[ci];
        chip.setPeCycles(block, cond.peCycles);
        chip.refresh(block);
        // Age so the effective hours land on the condition while the
        // recorded retention temperature is the band's.
        const double raw_hours = cond.effRetentionHours
            / chip.model().arrheniusFactor(temp_band_c);
        chip.age(block, raw_hours, temp_band_c);

        // Aging above is the last chip mutation; the sweep below only
        // reads, and each wordline's noise seeds derive from
        // (readStream, condition, wordline), so the sampled wordlines
        // can run on any number of threads. The reduction into the
        // fit-sample vectors stays sequential in wordline order.
        const nand::ReadClock clock(
            util::hashCombine(options_.readStream, ci));
        std::vector<WlSample> samples(wls.size());
        util::parallelFor(
            options_.threads, static_cast<int>(wls.size()), [&](int i) {
                const int wl = wls[static_cast<std::size_t>(i)];
                nand::ReadSeq seq = clock.session(block, wl);
                const auto data = nand::WordlineSnapshot::dataRegion(
                    chip, block, wl, seq.next());
                const auto sent =
                    sentinelSnapshot(chip, block, wl, overlay, seq.next());

                const auto opts = oracle.optimalOffsets(data, defaults);
                WlSample &s = samples[static_cast<std::size_t>(i)];
                s.d = countSentinelErrors(sent, k_s, v_s).dRate();
                s.offsets.assign(nb, 0.0);
                for (int k = 1; k < geom.states(); ++k) {
                    s.offsets[static_cast<std::size_t>(k)] =
                        opts[static_cast<std::size_t>(k)].offset;
                }
            });

        for (const WlSample &s : samples) {
            const double opt_s = s.offsets[static_cast<std::size_t>(k_s)];
            out.dSamples.push_back(s.d);
            out.voptSamples.push_back(opt_s);
            for (int k = 1; k < geom.states(); ++k) {
                xs[static_cast<std::size_t>(k)].push_back(opt_s);
                ys[static_cast<std::size_t>(k)].push_back(
                    s.offsets[static_cast<std::size_t>(k)]);
            }
        }
    }

    chip.setBlockAge(block, saved);

    out.samples = out.dSamples.size();
    const auto [dmin, dmax] = std::minmax_element(out.dSamples.begin(),
                                                  out.dSamples.end());
    util::fatalIf(out.dSamples.empty() || *dmax - *dmin < 1e-9,
                  "characterizer: sentinel error-difference samples are "
                  "degenerate; too few sentinel cells for this geometry "
                  "(raise SentinelConfig::ratio) or conditions too mild");
    out.dToVopt = util::polyfit(out.dSamples, out.voptSamples,
                                static_cast<std::size_t>(options_.polyDegree));
    out.dFitRmse =
        util::polyfitRmse(out.dToVopt, out.dSamples, out.voptSamples);

    out.crossVoltage.resize(nb);
    for (int k = 1; k < geom.states(); ++k) {
        out.crossVoltage[static_cast<std::size_t>(k)] = util::linearFit(
            xs[static_cast<std::size_t>(k)], ys[static_cast<std::size_t>(k)]);
    }
    return out;
}

std::vector<Characterization>
FactoryCharacterizer::runBands(nand::Chip &chip,
                               const std::vector<double> &band_temps) const
{
    util::fatalIf(band_temps.empty(), "characterizer: no bands given");
    std::vector<Characterization> out;
    out.reserve(band_temps.size());
    for (double t : band_temps)
        out.push_back(run(chip, t));
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
