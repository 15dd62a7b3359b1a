#include "nandsim/sense_kernel.hh"

#include "util/gaussian_batch.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace flash::nand
{

/**
 * The chunk steps, written once. Each CPU level's wrappers below
 * inline these bodies, so the same source compiles at that level's
 * vector width; the callers have checked every chunk.
 */
struct SenseBodies
{
    static FLASH_ALWAYS_INLINE void
    states(const SenseKernel &k, int col, int n, std::uint8_t *out)
    {
        const WordlineContent &c = *k.content_;
        // The sentinel overlay wins over both data sources; only the
        // columns outside it draw a data state.
        int ov_lo = col + n, ov_hi = col + n;
        if (c.sentinels) {
            ov_lo = std::clamp(c.sentinels->start, col, col + n);
            ov_hi = std::clamp(c.sentinels->start + c.sentinels->count,
                               ov_lo, col + n);
        }
        const auto data = [&](int lo, int hi) {
            if (!c.explicitStates.empty()) {
                std::copy(c.explicitStates.begin() + lo,
                          c.explicitStates.begin() + hi, out + (lo - col));
                return;
            }
            for (int i = lo; i < hi; ++i) {
                const std::uint64_t h = util::mix64(util::fastHashAbsorb(
                    k.dataState_, static_cast<std::uint64_t>(i)));
                out[i - col] = static_cast<std::uint8_t>(h & k.stateMask_);
            }
        };
        data(col, ov_lo);
        for (int i = ov_lo; i < ov_hi; ++i)
            out[i - col] = c.sentinels->stateOf(i - c.sentinels->start);
        data(ov_hi, col + n);
    }

    /**
     * The age-independent terms of Chip::staticCellVth for columns
     * [col, col + n) in the given true states: each cell's row in an
     * applyAge() table (its state, plus the state count if the
     * heavy-tail gate picks it), standard normal draw and gradient
     * term.
     */
    static FLASH_ALWAYS_INLINE void
    staticDraws(const SenseKernel &k, int col, int n,
                const std::uint8_t *states, std::uint8_t *row, double *z,
                double *slope)
    {
        // Zeroed so -Wmaybe-uninitialized sees the buffer written for
        // n = 0.
        std::uint64_t zh[SenseKernel::kChunk] = {};
        for (int i = 0; i < n; ++i) {
            zh[i] = util::mix64(util::fastHashAbsorb(
                k.staticState_, static_cast<std::uint64_t>(col + i)));
        }
        util::gaussian::batchBody(zh, z, static_cast<std::size_t>(n));
        const std::uint32_t tail_thresh = k.ctx_.tailThresh;
        const auto tail_row = static_cast<std::uint8_t>(k.stateMask_ + 1);
        const double gradient = k.ctx_.gradient;
        for (int i = 0; i < n; ++i) {
            const bool tail = (zh[i] & 0x7ff) < tail_thresh;
            row[i] =
                static_cast<std::uint8_t>(states[i] + (tail ? tail_row : 0));
            const double frac =
                static_cast<double>(col + i) / k.lastCol_ - 0.5;
            slope[i] = gradient * frac;
        }
    }

    /**
     * Static Vth of n cells at the age of @p ctx from their
     * staticDraws() terms: Chip::staticCellVth, term for term. The
     * main and heavy-tail populations' means and sigmas sit in one
     * table each, indexed by the cell's row.
     */
    static FLASH_ALWAYS_INLINE void
    applyAge(const WordlineContext &ctx, int n, const std::uint8_t *row,
             const double *z, const double *slope, double *out)
    {
        constexpr std::size_t kMaxRows = 32; // main + tail, QLC
        double mean[kMaxRows], sigma[kMaxRows];
        const std::size_t tail_row = ctx.mean.size();
        std::copy(ctx.mean.begin(), ctx.mean.end(), mean);
        std::copy(ctx.tailMean.begin(), ctx.tailMean.end(), mean + tail_row);
        std::copy(ctx.sigma.begin(), ctx.sigma.end(), sigma);
        std::copy(ctx.tailSigma.begin(), ctx.tailSigma.end(),
                  sigma + tail_row);
        for (int i = 0; i < n; ++i)
            out[i] = mean[row[i]] + sigma[row[i]] * z[i] + slope[i];
    }

    static FLASH_ALWAYS_INLINE void
    staticVth(const SenseKernel &k, int col, int n,
              const std::uint8_t *states, double *out)
    {
        std::uint8_t row[SenseKernel::kChunk];
        double z[SenseKernel::kChunk];
        double slope[SenseKernel::kChunk];
        staticDraws(k, col, n, states, row, z, slope);
        applyAge(k.ctx_, n, row, z, slope, out);
    }

    static FLASH_ALWAYS_INLINE void
    addReadNoise(const SenseKernel &k, int col, int n,
                 std::uint64_t read_seq, double *vth)
    {
        const double noise_sigma = k.ctx_.readNoiseSigma;
        if (!(noise_sigma > 0.0))
            return;
        const std::uint64_t prefix = util::fastHashState(
            k.noiseKey_, read_seq, static_cast<std::uint64_t>(k.block_),
            static_cast<std::uint64_t>(k.wl_));
        std::uint64_t nh[SenseKernel::kChunk] = {};
        double z[SenseKernel::kChunk];
        for (int i = 0; i < n; ++i) {
            nh[i] = util::mix64(util::fastHashAbsorb(
                prefix, static_cast<std::uint64_t>(col + i)));
        }
        util::gaussian::batchBody(nh, z, static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            vth[i] += noise_sigma * z[i];
    }

    /** Round, clamp and count n cells' Vth into @p bins. */
    static FLASH_ALWAYS_INLINE void
    bin(int n, const std::uint8_t *states, const double *vth, DacBins &bins)
    {
        const int lo = bins.lo;
        const int hi = bins.hi;
        const int width = hi - lo + 1;
        int min_dac = bins.minDac, max_dac = bins.maxDac;
        int slot[SenseKernel::kChunk];
        // Round and clamp the whole chunk first (a vector loop), then
        // count: one increment per cell, no per-cell total or flag
        // store in the way.
        for (int i = 0; i < n; ++i) {
            const int d = std::clamp(roundDac(vth[i]), lo, hi);
            min_dac = std::min(min_dac, d);
            max_dac = std::max(max_dac, d);
            slot[i] = states[i] * width + (d - lo);
        }
        std::uint32_t *counts = bins.counts;
        for (int i = 0; i < n; ++i)
            ++counts[slot[i]];
        bins.minDac = min_dac;
        bins.maxDac = max_dac;
    }

    static FLASH_ALWAYS_INLINE void
    senseAges(const SenseKernel &k, int col_begin, int col_end,
              AgedSense *senses, std::size_t count)
    {
        for (int col = col_begin; col < col_end; col += SenseKernel::kChunk) {
            const int n = std::min(SenseKernel::kChunk, col_end - col);
            std::uint8_t st[SenseKernel::kChunk];
            std::uint8_t row[SenseKernel::kChunk];
            double z[SenseKernel::kChunk];
            double slope[SenseKernel::kChunk];
            double vth[SenseKernel::kChunk];
            states(k, col, n, st);
            staticDraws(k, col, n, st, row, z, slope);
            for (std::size_t a = 0; a < count; ++a) {
                AgedSense &sense = senses[a];
                applyAge(*sense.context, n, row, z, slope, vth);
                addReadNoise(k, col, n, sense.readSeq, vth);
                bin(n, st, vth, sense.bins);
            }
        }
    }
};

/** The chunk steps compiled for one CPU level. */
struct SenseSteps
{
    void (*states)(const SenseKernel &, int, int, std::uint8_t *);
    void (*staticVth)(const SenseKernel &, int, int, const std::uint8_t *,
                      double *);
    void (*addReadNoise)(const SenseKernel &, int, int, std::uint64_t,
                         double *);
    void (*senseAges)(const SenseKernel &, int, int, AgedSense *,
                      std::size_t);
};

namespace
{

// One wrapper per step and level around the shared body; TARGET is
// empty (baseline) or a util/cpu_level.hh target attribute.
#define FLASH_SENSE_STEPS(TARGET, NAME)                                     \
    TARGET void NAME##States(const SenseKernel &k, int col, int n,          \
                             std::uint8_t *out)                             \
    {                                                                       \
        SenseBodies::states(k, col, n, out);                                \
    }                                                                       \
    TARGET void NAME##StaticVth(const SenseKernel &k, int col, int n,       \
                                const std::uint8_t *st, double *out)        \
    {                                                                       \
        SenseBodies::staticVth(k, col, n, st, out);                         \
    }                                                                       \
    TARGET void NAME##AddReadNoise(const SenseKernel &k, int col, int n,    \
                                   std::uint64_t seq, double *vth)          \
    {                                                                       \
        SenseBodies::addReadNoise(k, col, n, seq, vth);                     \
    }                                                                       \
    TARGET void NAME##SenseAges(const SenseKernel &k, int b, int e,         \
                                AgedSense *senses, std::size_t count)       \
    {                                                                       \
        SenseBodies::senseAges(k, b, e, senses, count);                     \
    }                                                                       \
    constexpr SenseSteps NAME = {NAME##States, NAME##StaticVth,             \
                                 NAME##AddReadNoise, NAME##SenseAges};

FLASH_SENSE_STEPS(, kBaselineSteps)
FLASH_SENSE_STEPS(FLASH_TARGET_V3, kV3Steps)
FLASH_SENSE_STEPS(FLASH_TARGET_V4, kV4Steps)

#undef FLASH_SENSE_STEPS

} // namespace

SenseKernel::SenseKernel(const Chip &chip, int block, int wl,
                         util::CpuLevel level)
    : chip_(&chip), content_(&chip.content(block, wl)),
      ctx_(chip.wordlineContext(block, wl)), block_(block), wl_(wl),
      steps_(util::forCpuLevel(level, &kBaselineSteps, &kV3Steps,
                               &kV4Steps)),
      stateMask_(static_cast<std::uint64_t>(chip.geometry().states()) - 1),
      bitlines_(chip.geometry().bitlines()),
      lastCol_(static_cast<double>(chip.geometry().bitlines() - 1)),
      dataState_(util::fastHashState(content_->dataSeed)),
      staticState_(util::fastHashState(
          chip.seed() ^ Chip::kStaticVthSalt,
          static_cast<std::uint64_t>(block),
          static_cast<std::uint64_t>(wl))),
      noiseKey_(chip.seed() ^ Chip::kReadNoiseSalt)
{
    util::fatalIf(!util::cpuLevelSupported(level),
                  "sense kernel: this CPU cannot run the requested level");
}

void
SenseKernel::checkChunk(int col, int n) const
{
    util::panicIf(n < 0 || n > kChunk || col < 0 || col + n > bitlines_,
                  "sense kernel: chunk outside the wordline or too long");
}

void
SenseKernel::states(int col, int n, std::uint8_t *out) const
{
    checkChunk(col, n);
    steps_->states(*this, col, n, out);
}

void
SenseKernel::staticVth(int col, int n, const std::uint8_t *states,
                       double *out) const
{
    checkChunk(col, n);
    steps_->staticVth(*this, col, n, states, out);
}

void
SenseKernel::addReadNoise(int col, int n, std::uint64_t read_seq,
                          double *vth) const
{
    checkChunk(col, n);
    steps_->addReadNoise(*this, col, n, read_seq, vth);
}

void
SenseKernel::senseAges(int col_begin, int col_end,
                       std::span<AgedSense> senses) const
{
    util::panicIf(col_begin < 0 || col_end > bitlines_
                      || col_begin > col_end,
                  "sense kernel: column range outside the wordline");
    const auto n_states = static_cast<std::size_t>(stateMask_ + 1);
    for (const AgedSense &s : senses) {
        util::panicIf(s.bins.hi < s.bins.lo, "sense kernel: empty DAC range");
        // The shared terms are this wordline's: only the per-state
        // means and sigmas may differ.
        const WordlineContext &c = *s.context;
        util::panicIf(c.mean.size() != n_states || c.sigma.size() != n_states
                          || c.tailMean.size() != n_states
                          || c.tailSigma.size() != n_states
                          || c.tailThresh != ctx_.tailThresh
                          || c.gradient != ctx_.gradient
                          || c.readNoiseSigma != ctx_.readNoiseSigma,
                      "sense kernel: context of another wordline");
    }
    steps_->senseAges(*this, col_begin, col_end, senses.data(),
                      senses.size());
}

} // namespace flash::nand
