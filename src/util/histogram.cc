#include "util/histogram.hh"

#include <algorithm>
#include <numeric>

#include "util/logging.hh"

namespace flash::util
{

Histogram::Histogram(int lo, int hi) : lo_(lo), hi_(hi)
{
    fatalIf(hi < lo, "Histogram: hi < lo");
    bins_.assign(static_cast<std::size_t>(hi - lo + 1), 0);
}

void
Histogram::add(const std::vector<int> &values)
{
    for (int v : values)
        add(v);
}

std::uint64_t
Histogram::binCount(int value) const
{
    const int clamped = std::clamp(value, lo_, hi_);
    return bins_[static_cast<std::size_t>(clamped - lo_)];
}

void
Histogram::ensurePrefix() const
{
    if (prefixValid_)
        return;
    prefix_.resize(bins_.size());
    std::partial_sum(bins_.begin(), bins_.end(), prefix_.begin());
    prefixValid_ = true;
}

std::uint64_t
Histogram::countAtOrBelow(int v) const
{
    if (v < lo_)
        return 0;
    if (v >= hi_)
        return total_;
    ensurePrefix();
    return prefix_[static_cast<std::size_t>(v - lo_)];
}

double
Histogram::mean() const
{
    if (total_ == 0)
        return 0.0;
    double acc = 0.0;
    for (std::size_t i = 0; i < bins_.size(); ++i)
        acc += static_cast<double>(bins_[i]) * (lo_ + static_cast<int>(i));
    return acc / static_cast<double>(total_);
}

} // namespace flash::util
