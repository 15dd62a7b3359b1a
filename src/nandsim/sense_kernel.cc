#include "nandsim/sense_kernel.hh"

#include "util/logging.hh"
#include "util/rng.hh"

namespace flash::nand
{

SenseKernel::SenseKernel(const Chip &chip, int block, int wl)
    : content_(&chip.content(block, wl)),
      ctx_(chip.wordlineContext(block, wl)), block_(block), wl_(wl),
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
    const WordlineContent &c = *content_;
    // The sentinel overlay wins over both data sources; only the
    // columns outside it draw a data state.
    int ov_lo = col + n, ov_hi = col + n;
    if (c.sentinels) {
        ov_lo = std::clamp(c.sentinels->start, col, col + n);
        ov_hi = std::clamp(c.sentinels->start + c.sentinels->count, ov_lo,
                           col + n);
    }
    const auto data = [&](int lo, int hi) {
        if (!c.explicitStates.empty()) {
            std::copy(c.explicitStates.begin() + lo,
                      c.explicitStates.begin() + hi, out + (lo - col));
            return;
        }
        for (int k = lo; k < hi; ++k) {
            const std::uint64_t h = util::mix64(util::fastHashAbsorb(
                dataState_, static_cast<std::uint64_t>(k)));
            out[k - col] = static_cast<std::uint8_t>(h & stateMask_);
        }
    };
    data(col, ov_lo);
    for (int k = ov_lo; k < ov_hi; ++k)
        out[k - col] = c.sentinels->stateOf(k - c.sentinels->start);
    data(ov_hi, col + n);
}

void
SenseKernel::staticVth(int col, int n, const std::uint8_t *states,
                       double *out) const
{
    checkChunk(col, n);
    // Zeroed so -Wmaybe-uninitialized sees the buffer written for n = 0.
    std::uint64_t zh[kChunk] = {};
    double z[kChunk];
    for (int i = 0; i < n; ++i) {
        zh[i] = util::mix64(util::fastHashAbsorb(
            staticState_, static_cast<std::uint64_t>(col + i)));
    }
    util::toGaussianBatch(zh, z, static_cast<std::size_t>(n));

    const double *mean = ctx_.mean.data();
    const double *sigma = ctx_.sigma.data();
    const double *tail_mean = ctx_.tailMean.data();
    const double *tail_sigma = ctx_.tailSigma.data();
    for (int i = 0; i < n; ++i) {
        // Chip::staticCellVth, term for term.
        const bool tail = (zh[i] & 0x7ff) < ctx_.tailThresh;
        const double frac =
            static_cast<double>(col + i) / lastCol_ - 0.5;
        const std::uint8_t s = states[i];
        out[i] = (tail ? tail_mean[s] : mean[s])
            + (tail ? tail_sigma[s] : sigma[s]) * z[i]
            + ctx_.gradient * frac;
    }
}

void
SenseKernel::addReadNoise(int col, int n, std::uint64_t read_seq,
                          double *vth) const
{
    checkChunk(col, n);
    if (!(ctx_.readNoiseSigma > 0.0))
        return;
    const std::uint64_t prefix = util::fastHashState(
        noiseKey_, read_seq, static_cast<std::uint64_t>(block_),
        static_cast<std::uint64_t>(wl_));
    std::uint64_t nh[kChunk] = {};
    double z[kChunk];
    for (int i = 0; i < n; ++i) {
        nh[i] = util::mix64(util::fastHashAbsorb(
            prefix, static_cast<std::uint64_t>(col + i)));
    }
    util::toGaussianBatch(nh, z, static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        vth[i] += ctx_.readNoiseSigma * z[i];
}

void
SenseKernel::sense(int col_begin, int col_end, std::uint64_t read_seq,
                   std::vector<util::Histogram> &hist) const
{
    forEachChunk(col_begin, col_end, [&](int col, int n) {
        std::uint8_t st[kChunk];
        double vth[kChunk];
        states(col, n, st);
        staticVth(col, n, st, vth);
        addReadNoise(col, n, read_seq, vth);
        for (int i = 0; i < n; ++i)
            hist[st[i]].add(roundDac(vth[i]));
    });
}

} // namespace flash::nand
