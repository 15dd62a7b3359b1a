#include "nandsim/snapshot.hh"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <utility>

#include "util/logging.hh"

namespace flash::nand
{

namespace
{

/**
 * This thread's binning counters, at least @p size of them. All zero
 * between senses: each snapshot clears the windows it touched, so a
 * sense costs no allocation and no full-range zero fill. The counters
 * are an anonymous mapping, so a page no sense has written is never
 * faulted in: a multi-age sweep's bin sets take resident memory only
 * where their cells fell. (calloc would not promise that: once the
 * allocator's mmap threshold has risen past the request, it serves
 * it from a heap and zero-fills all of it.)
 */
std::uint32_t *
binScratch(std::size_t size)
{
    struct Scratch
    {
        void *base = nullptr;
        std::size_t bytes = 0;

        ~Scratch()
        {
            if (base != nullptr)
                ::munmap(base, bytes);
        }
    };
    thread_local Scratch scratch;
    const std::size_t bytes = size * sizeof(std::uint32_t);
    if (scratch.bytes < bytes) {
        void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        if (scratch.base != nullptr)
            ::munmap(scratch.base, scratch.bytes);
        scratch.base = p;
        scratch.bytes = bytes;
    }
    return static_cast<std::uint32_t *>(scratch.base);
}

} // namespace

WordlineSnapshot::WordlineSnapshot(const Chip &chip, int block, int wl,
                                   std::uint64_t read_seq, int col_begin,
                                   int col_end)
    : WordlineSnapshot(SenseKernel(chip, block, wl), read_seq, col_begin,
                       col_end)
{
}

WordlineSnapshot::WordlineSnapshot(const SenseKernel &kernel,
                                   std::uint64_t read_seq, int col_begin,
                                   int col_end)
    : WordlineSnapshot(kernel.chip())
{
    AgedSense one{&kernel.context(), read_seq, {}};
    sweep(kernel, std::span(&one, 1), col_begin, col_end, this);
}

WordlineSnapshot::WordlineSnapshot(const Chip &chip)
    : code_(&chip.grayCode()), states_(chip.geometry().states())
{
    util::panicIf(states_ > kMaxStates, "snapshot: too many states");
}

std::vector<WordlineSnapshot>
WordlineSnapshot::senseAges(const SenseKernel &kernel,
                            std::span<const AgedRead> reads, int col_begin,
                            int col_end)
{
    const Chip &chip = kernel.chip();
    std::vector<WordlineContext> contexts;
    contexts.reserve(reads.size());
    for (const AgedRead &r : reads) {
        contexts.push_back(
            chip.wordlineContext(kernel.block(), kernel.wordline(), r.age));
    }
    std::vector<WordlineSnapshot> out(reads.size(), WordlineSnapshot(chip));

    // Equal groups of at most kSweepScratchBytes of bin sets each.
    const std::size_t set_bytes = sizeof(std::uint32_t)
        * static_cast<std::size_t>(chip.model().vthMax()
                                   - chip.model().vthMin() + 1)
        * static_cast<std::size_t>(chip.geometry().states());
    const std::size_t per_group =
        std::max<std::size_t>(1, kSweepScratchBytes / set_bytes);
    const std::size_t groups = (reads.size() + per_group - 1) / per_group;
    std::vector<AgedSense> senses;
    for (std::size_t g = 0, i = 0; g < groups; ++g) {
        const std::size_t n =
            (reads.size() - i + (groups - g) - 1) / (groups - g);
        senses.clear();
        for (std::size_t j = i; j < i + n; ++j)
            senses.push_back({&contexts[j], reads[j].readSeq, {}});
        sweep(kernel, senses, col_begin, col_end, out.data() + i);
        i += n;
    }
    return out;
}

void
WordlineSnapshot::sweep(const SenseKernel &kernel,
                        std::span<AgedSense> senses, int col_begin,
                        int col_end, WordlineSnapshot *out)
{
    const Chip &chip = kernel.chip();
    util::fatalIf(col_begin < 0 || col_end > chip.geometry().bitlines()
                      || col_begin > col_end,
                  "snapshot: bad column range");

    const int lo = chip.model().vthMin();
    const int hi = chip.model().vthMax();
    const int states = chip.geometry().states();
    const auto width = static_cast<std::size_t>(hi - lo + 1);
    const std::size_t set = width * static_cast<std::size_t>(states);
    std::uint32_t *scratch = binScratch(set * senses.size());
    for (std::size_t i = 0; i < senses.size(); ++i)
        senses[i].bins = DacBins{scratch + i * set, lo, hi, hi + 1, lo - 1};
    // The scratch must be all zero again on every exit. A compacted
    // sense clears just its states' windows below, which hold all its
    // nonzero counters; one still pending when something throws is
    // cleared over its whole touched DAC range.
    struct ClearPending
    {
        std::span<AgedSense> senses;
        std::size_t width;
        int states;

        ~ClearPending()
        {
            for (const AgedSense &a : senses) {
                const DacBins &bins = a.bins;
                if (bins.minDac > bins.maxDac)
                    continue;
                for (int s = 0; s < states; ++s) {
                    std::uint32_t *row =
                        bins.counts + static_cast<std::size_t>(s) * width;
                    std::fill(row + (bins.minDac - bins.lo),
                              row + (bins.maxDac - bins.lo + 1), 0u);
                }
            }
        }
    } clear{senses, width, states};

    kernel.senseAges(col_begin, col_end, senses);
    for (std::size_t i = 0; i < senses.size(); ++i) {
        DacBins &bins = senses[i].bins;
        WordlineSnapshot &snap = out[i];
        snap.compact(bins, static_cast<std::uint64_t>(col_end - col_begin));
        for (int s = 0; s < states; ++s) {
            const StateWindow &w =
                snap.windows_[static_cast<std::size_t>(s)];
            if (w.lo > w.hi)
                continue;
            std::uint32_t *row =
                bins.counts + static_cast<std::size_t>(s) * width;
            std::fill(row + (w.lo - lo), row + (w.hi - lo + 1), 0u);
        }
        bins.minDac = hi + 1; // cleared
        bins.maxDac = lo - 1;
    }
}

void
WordlineSnapshot::compact(const DacBins &bins, std::uint64_t cells)
{
    cells_ = cells;
    if (bins.minDac > bins.maxDac)
        return; // no cells: every window stays empty

    const int lo = bins.lo;
    const auto width = static_cast<std::size_t>(bins.hi - lo + 1);
    // Row s of the scratch: row(s)[v - lo] counts DAC value v.
    const auto row = [&](int s) {
        return bins.counts + static_cast<std::size_t>(s) * width;
    };
    // Each state's window: its first and last nonzero counter.
    std::size_t size = 0;
    for (int s = 0; s < states_; ++s) {
        const std::uint32_t *r = row(s);
        int first = bins.minDac, last = bins.maxDac;
        while (first <= last && r[first - lo] == 0)
            ++first;
        while (last > first && r[last - lo] == 0)
            --last;
        if (first > last)
            continue; // no cell in this state: the empty window
        StateWindow &w = windows_[static_cast<std::size_t>(s)];
        w.lo = first;
        w.hi = last;
        w.offset = static_cast<std::uint32_t>(size);
        size += static_cast<std::size_t>(last - first + 1);
    }
    // Capacity in 4 KiB steps: a snapshot Chip's memo evicts leaves a
    // hole the next one of its width fits exactly. At exact sizes,
    // which vary by a few counters, the memo's churn fragments the
    // heap and its peak RSS keeps growing (DESIGN.md section 11).
    prefix_.reserve((size + kCapacityStep - 1) / kCapacityStep
                    * kCapacityStep);
    prefix_.resize(size);
    for (int s = 0; s < states_; ++s) {
        StateWindow &w = windows_[static_cast<std::size_t>(s)];
        const std::uint32_t *in = row(s) + (w.lo - lo);
        std::uint32_t *out = prefix_.data() + w.offset;
        std::uint32_t sum = 0;
        for (int i = 0; i <= w.hi - w.lo; ++i) {
            sum += in[i];
            out[i] = sum;
        }
        w.total = sum;
    }
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
    return windows_[static_cast<std::size_t>(s)].total;
}

std::uint64_t
WordlineSnapshot::upErrors(int k, int v) const
{
    util::fatalIf(k < 1 || k >= states(), "snapshot: boundary out of range");
    return cellsInState(k - 1) - countAtOrBelow(k - 1, v);
}

std::uint64_t
WordlineSnapshot::downErrors(int k, int v) const
{
    util::fatalIf(k < 1 || k >= states(), "snapshot: boundary out of range");
    return countAtOrBelow(k, v);
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
        const std::uint64_t total = cellsInState(s);
        if (total == 0)
            continue;
        const int want = code_->bit(s, page);
        std::uint64_t below = 0; // cells at or below the region's floor
        for (std::size_t r = 0; r <= ks.size(); ++r) {
            const std::uint64_t upto = r < ks.size()
                ? countAtOrBelow(
                      s, voltages[static_cast<std::size_t>(ks[r])])
                : total;
            const int bit = bit0 ^ (static_cast<int>(r) & 1);
            if (bit != want)
                errors += upto - below;
            below = upto;
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
    for (int s = 0; s < states(); ++s)
        n += countAtOrBelow(s, hi) - countAtOrBelow(s, lo);
    return n;
}

std::uint64_t
WordlineSnapshot::stateCellsInRange(int s, int lo, int hi) const
{
    util::fatalIf(s < 0 || s >= states(), "snapshot: state out of range");
    if (hi < lo)
        std::swap(lo, hi);
    return countAtOrBelow(s, hi) - countAtOrBelow(s, lo);
}

} // namespace flash::nand
