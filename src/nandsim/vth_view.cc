#include "nandsim/vth_view.hh"

#include <algorithm>

#include "util/logging.hh"

namespace flash::nand
{

WordlineVthView::WordlineVthView(const Chip &chip, int block, int wl,
                                 int col_begin, int col_end)
    : chip_(&chip), block_(block), wl_(wl), colBegin_(col_begin),
      colEnd_(col_end), kernel_(chip, block, wl)
{
    const auto &geom = chip.geometry();
    util::fatalIf(col_begin < 0 || col_end > geom.bitlines()
                      || col_begin > col_end,
                  "vth view: bad column range");

    const auto n = static_cast<std::size_t>(col_end - col_begin);
    states_.resize(n);
    static_.resize(n);
    SenseKernel::forEachChunk(col_begin, col_end, [&](int col, int len) {
        const auto i = static_cast<std::size_t>(col - col_begin);
        kernel_.states(col, len, &states_[i]);
        kernel_.staticVth(col, len, &states_[i], &static_[i]);
    });
    stateCount_.assign(static_cast<std::size_t>(geom.states()), 0);
    for (const std::uint8_t s : states_)
        ++stateCount_[s];
    trueBits_.resize(static_cast<std::size_t>(geom.pagesPerWordline()));
}

WordlineVthView
WordlineVthView::dataRegion(const Chip &chip, int block, int wl)
{
    return WordlineVthView(chip, block, wl, 0,
                           chip.geometry().dataBitlines);
}

WordlineVthView
WordlineVthView::fullWordline(const Chip &chip, int block, int wl)
{
    return WordlineVthView(chip, block, wl, 0, chip.geometry().bitlines());
}

std::uint64_t
WordlineVthView::cellsInState(int s) const
{
    util::fatalIf(s < 0 || s >= static_cast<int>(stateCount_.size()),
                  "vth view: state out of range");
    return stateCount_[static_cast<std::size_t>(s)];
}

std::vector<int>
WordlineVthView::senseDac(std::uint64_t read_seq) const
{
    std::vector<int> dac(static_.size());
    SenseKernel::forEachChunk(colBegin_, colEnd_, [&](int col, int len) {
        const auto i0 = static_cast<std::size_t>(col - colBegin_);
        double vth[SenseKernel::kChunk];
        std::copy_n(&static_[i0], len, vth);
        kernel_.addReadNoise(col, len, read_seq, vth);
        for (int i = 0; i < len; ++i)
            dac[i0 + static_cast<std::size_t>(i)] = roundDac(vth[i]);
    });
    return dac;
}

util::Bitplane
WordlineVthView::packBits(int page, const std::vector<int> &voltages,
                          const std::vector<int> &dac) const
{
    const GrayCode &code = chip_->grayCode();
    util::fatalIf(page < 0 || page >= chip_->geometry().pagesPerWordline(),
                  "vth view: page out of range");
    util::fatalIf(static_cast<int>(voltages.size())
                      < chip_->geometry().states(),
                  "vth view: voltage vector must be indexed 1..boundaries");
    util::fatalIf(dac.size() != static_.size(),
                  "vth view: sense size mismatch");

    const auto &ks = code.boundariesOfPage(page);
    int thresholds[8];
    util::fatalIf(ks.size() > 8, "vth view: too many page boundaries");
    for (std::size_t t = 0; t < ks.size(); ++t)
        thresholds[t] = voltages[static_cast<std::size_t>(ks[t])];

    const unsigned bit0 = static_cast<unsigned>(code.bit(0, page));
    util::Bitplane out(dac.size());
    std::uint64_t *words = out.words();
    const std::size_t n_thresh = ks.size();
    const std::size_t n = dac.size();
    // Accumulate each word in a register; per-bit |= into the array
    // would read-modify-write memory on every cell.
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const int v = dac[i];
        unsigned region = 0;
        for (std::size_t t = 0; t < n_thresh; ++t)
            region += v > thresholds[t];
        w |= static_cast<std::uint64_t>((bit0 ^ region) & 1) << (i & 63);
        if ((i & 63) == 63) {
            words[i >> 6] = w;
            w = 0;
        }
    }
    if (n & 63)
        words[n >> 6] = w;
    return out;
}

const util::Bitplane &
WordlineVthView::truePageBits(int page) const
{
    util::fatalIf(page < 0
                      || page >= static_cast<int>(trueBits_.size()),
                  "vth view: page out of range");
    auto &cached = trueBits_[static_cast<std::size_t>(page)];
    if (!cached) {
        const GrayCode &code = chip_->grayCode();
        util::Bitplane plane(states_.size());
        std::uint64_t *words = plane.words();
        for (std::size_t i = 0; i < states_.size(); ++i) {
            words[i >> 6] |= static_cast<std::uint64_t>(
                                 code.bit(states_[i], page))
                << (i & 63);
        }
        cached.emplace(std::move(plane));
    }
    return *cached;
}

PageReadResult
WordlineVthView::pageRead(int page, const std::vector<int> &voltages,
                          std::uint64_t read_seq) const
{
    return pageRead(page, voltages, senseDac(read_seq));
}

PageReadResult
WordlineVthView::pageRead(int page, const std::vector<int> &voltages,
                          const std::vector<int> &dac) const
{
    PageReadResult r;
    r.bits = cells();
    r.bitErrors =
        util::diffCount(packBits(page, voltages, dac), truePageBits(page));
    return r;
}

} // namespace flash::nand
