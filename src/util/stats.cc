#include "util/stats.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace flash::util
{

void
RunningStats::add(double x)
{
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
RunningStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
mean(const std::vector<double> &values)
{
    RunningStats s;
    for (double v : values)
        s.add(v);
    return s.mean();
}

double
stddev(const std::vector<double> &values)
{
    RunningStats s;
    for (double v : values)
        s.add(v);
    return s.stddev();
}

double
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    fatalIf(x.size() != y.size(), "pearson: length mismatch");
    if (x.size() < 2)
        return 0.0;
    const double mx = mean(x);
    const double my = mean(y);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double dx = x[i] - mx;
        const double dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

} // namespace flash::util
