#include "nandsim/snapshot.hh"

#include <utility>

#include "nandsim/sense_kernel.hh"
#include "util/logging.hh"

namespace flash::nand
{

WordlineSnapshot::WordlineSnapshot(const Chip &chip, int block, int wl,
                                   std::uint64_t read_seq, int col_begin,
                                   int col_end)
    : code_(&chip.grayCode())
{
    const auto &geom = chip.geometry();
    util::fatalIf(col_begin < 0 || col_end > geom.bitlines()
                      || col_begin > col_end,
                  "snapshot: bad column range");

    const int lo = chip.model().vthMin();
    const int hi = chip.model().vthMax();
    hist_.reserve(static_cast<std::size_t>(geom.states()));
    for (int s = 0; s < geom.states(); ++s)
        hist_.emplace_back(lo, hi);

    SenseKernel(chip, block, wl).sense(col_begin, col_end, read_seq, hist_);
    cells_ = static_cast<std::uint64_t>(col_end - col_begin);
}

WordlineSnapshot
WordlineSnapshot::dataRegion(const Chip &chip, int block, int wl,
                             std::uint64_t read_seq)
{
    return WordlineSnapshot(chip, block, wl, read_seq, 0,
                            chip.geometry().dataBitlines);
}

WordlineSnapshot
WordlineSnapshot::fullWordline(const Chip &chip, int block, int wl,
                               std::uint64_t read_seq)
{
    return WordlineSnapshot(chip, block, wl, read_seq, 0,
                            chip.geometry().bitlines());
}

std::uint64_t
WordlineSnapshot::cellsInState(int s) const
{
    util::fatalIf(s < 0 || s >= states(), "snapshot: state out of range");
    return hist_[static_cast<std::size_t>(s)].total();
}

std::uint64_t
WordlineSnapshot::upErrors(int k, int v) const
{
    util::fatalIf(k < 1 || k >= states(), "snapshot: boundary out of range");
    return hist_[static_cast<std::size_t>(k - 1)].countAbove(v);
}

std::uint64_t
WordlineSnapshot::downErrors(int k, int v) const
{
    util::fatalIf(k < 1 || k >= states(), "snapshot: boundary out of range");
    return hist_[static_cast<std::size_t>(k)].countAtOrBelow(v);
}

std::uint64_t
WordlineSnapshot::pageErrors(int page, const std::vector<int> &voltages) const
{
    const auto &ks = code_->boundariesOfPage(page);
    util::fatalIf(static_cast<int>(voltages.size()) < states(),
                  "snapshot: voltage vector must be indexed 1..boundaries");

    // Regions r = 0..K between the page's K thresholds; the page bit
    // alternates across regions starting from the erased state's bit.
    const int bit0 = code_->bit(0, page);
    std::uint64_t errors = 0;
    for (int s = 0; s < states(); ++s) {
        const auto &h = hist_[static_cast<std::size_t>(s)];
        if (h.total() == 0)
            continue;
        const int want = code_->bit(s, page);
        int region_lo = h.lo() - 1; // exclusive lower edge
        for (std::size_t r = 0; r <= ks.size(); ++r) {
            const int region_hi = r < ks.size()
                ? voltages[static_cast<std::size_t>(ks[r])]
                : h.hi();
            const int bit = bit0 ^ (static_cast<int>(r) & 1);
            if (bit != want) {
                errors += h.countAtOrBelow(region_hi)
                    - h.countAtOrBelow(region_lo);
            }
            region_lo = region_hi;
        }
    }
    return errors;
}

double
WordlineSnapshot::pageRber(int page, const std::vector<int> &voltages) const
{
    return cells_ ? static_cast<double>(pageErrors(page, voltages))
            / static_cast<double>(cells_)
                  : 0.0;
}

std::uint64_t
WordlineSnapshot::cellsInVthRange(int lo, int hi) const
{
    if (hi < lo)
        std::swap(lo, hi);
    std::uint64_t n = 0;
    for (const auto &h : hist_)
        n += h.countAtOrBelow(hi) - h.countAtOrBelow(lo);
    return n;
}

std::uint64_t
WordlineSnapshot::stateCellsInRange(int s, int lo, int hi) const
{
    util::fatalIf(s < 0 || s >= states(), "snapshot: state out of range");
    if (hi < lo)
        std::swap(lo, hi);
    const auto &h = hist_[static_cast<std::size_t>(s)];
    return h.countAtOrBelow(hi) - h.countAtOrBelow(lo);
}

} // namespace flash::nand
