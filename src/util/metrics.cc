#include "util/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"

namespace flash::util
{

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    // %.17g round-trips every double and formats the same bytes for
    // the same value, which the golden-stats tests rely on.
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
writeJsonValue(std::ostream &os, double v)
{
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        os << static_cast<long long>(v);
    } else {
        os << jsonNumber(v);
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            // Control characters must be \u-escaped; the cast keeps
            // bytes >= 0x80 (UTF-8 continuations, passed through
            // verbatim) from sign-extending into bogus escapes.
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

double
LatencyHistogram::binLo(int idx)
{
    if (idx <= 0)
        return 0.0;
    const int range = (idx - 1) / kSubBins;
    const int sub = (idx - 1) % kSubBins;
    const double base = std::ldexp(1.0, range);
    return base * (1.0 + static_cast<double>(sub) / kSubBins);
}

double
LatencyHistogram::binHi(int idx)
{
    if (idx <= 0)
        return 1.0;
    const int range = (idx - 1) / kSubBins;
    const int sub = (idx - 1) % kSubBins;
    const double base = std::ldexp(1.0, range);
    return base * (1.0 + static_cast<double>(sub + 1) / kSubBins);
}

void
LatencyHistogram::grow(std::size_t idx)
{
    bins_.resize(idx + 1, 0);
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.count_ == 0)
        return;
    if (other.bins_.size() > bins_.size())
        bins_.resize(other.bins_.size(), 0);
    for (std::size_t i = 0; i < other.bins_.size(); ++i)
        bins_[i] += other.bins_[i];
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_.merge(other.sum_);
}

int
LatencyHistogram::percentileBin(double q) const
{
    if (count_ == 0)
        return -1;
    q = std::clamp(q, 0.0, 1.0);
    // Nearest-rank over integer bin counts: deterministic regardless
    // of the order observations arrived in.
    const std::uint64_t target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        seen += bins_[i];
        if (seen >= target)
            return static_cast<int>(i);
    }
    return static_cast<int>(bins_.size()) - 1;
}

std::uint64_t
LatencyHistogram::countFromBin(int bin) const
{
    std::uint64_t seen = 0;
    for (std::size_t i = static_cast<std::size_t>(std::max(bin, 0));
         i < bins_.size(); ++i) {
        seen += bins_[i];
    }
    return seen;
}

double
LatencyHistogram::percentile(double q) const
{
    const int bin = percentileBin(q);
    if (bin < 0)
        return 0.0;
    const double mid = 0.5 * (binLo(bin) + binHi(bin));
    return std::clamp(mid, min_, max_);
}

void
LatencyHistogram::writeJson(std::ostream &os) const
{
    os << "{\"count\": " << count_
       << ", \"sum\": " << jsonNumber(sum())
       << ", \"min\": " << jsonNumber(min())
       << ", \"max\": " << jsonNumber(max())
       << ", \"mean\": " << jsonNumber(mean())
       << ", \"p50\": " << jsonNumber(percentile(0.50))
       << ", \"p90\": " << jsonNumber(percentile(0.90))
       << ", \"p99\": " << jsonNumber(percentile(0.99))
       << ", \"p999\": " << jsonNumber(percentile(0.999)) << "}";
}

void
LatencyHistogram::writeBinsJson(std::ostream &os) const
{
    os << "{\"count\": " << count_
       << ", \"min\": " << jsonNumber(min())
       << ", \"max\": " << jsonNumber(max())
       << ", \"sum\": " << jsonNumber(sum())
       << ", \"bins\": [";
    bool first = true;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (bins_[i] == 0)
            continue;
        os << (first ? "" : ", ") << '[' << i << ", " << bins_[i] << ']';
        first = false;
    }
    os << "]}";
}

LatencyHistogram
LatencyHistogram::fromBinsJson(const JsonValue &v)
{
    fatalIf(!v.isObject(), "histogram bins: expected an object");
    const JsonValue *bins = v.find("bins");
    double min = 0.0, max = 0.0, sum = 0.0, count = 0.0;
    fatalIf(bins == nullptr || bins->type != JsonValue::Type::Array
                || !v.get("min", min) || !v.get("max", max)
                || !v.get("sum", sum) || !v.get("count", count),
            "histogram bins: missing or mistyped field");

    // binOf() caps the range at 63, so no index exceeds this.
    constexpr double kMaxIndex = 1 + 63 * kSubBins + (kSubBins - 1);
    LatencyHistogram h;
    for (const JsonValue &entry : bins->array) {
        std::uint64_t idx = 0, n = 0;
        fatalIf(entry.type != JsonValue::Type::Array
                    || entry.array.size() != 2
                    || !jsonCount(&entry.array[0], idx, kMaxIndex)
                    || !jsonCount(&entry.array[1], n) || n == 0,
                "histogram bins: bad [index, count] entry");
        if (idx >= h.bins_.size())
            h.bins_.resize(idx + 1, 0);
        h.bins_[idx] += n;
        h.count_ += n;
    }
    fatalIf(static_cast<double>(h.count_) != count,
            "histogram bins: count does not match bin totals");
    if (h.count_ > 0) {
        h.min_ = min;
        h.max_ = max;
        h.sum_.add(sum);
    }
    return h;
}

std::size_t
LatencyHistogram::footprintBytes() const
{
    return sizeof(LatencyHistogram)
        + bins_.size() * sizeof(std::uint64_t);
}

void
MetricsRegistry::add(const std::string &name, std::uint64_t delta)
{
    counters_[name] += delta;
}

std::uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
MetricsRegistry::observe(const std::string &name, double value)
{
    histograms_[name].add(value);
}

LatencyHistogram &
MetricsRegistry::histogram(const std::string &name)
{
    return histograms_[name];
}

const LatencyHistogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    for (const auto &[name, value] : other.counters_)
        counters_[name] += value;
    for (const auto &[name, hist] : other.histograms_)
        histograms_[name].merge(hist);
}

void
MetricsRegistry::mergePrefixed(const MetricsRegistry &other,
                               const std::string &prefix)
{
    for (const auto &[name, value] : other.counters_)
        counters_[prefix + name] += value;
    for (const auto &[name, hist] : other.histograms_)
        histograms_[prefix + name].merge(hist);
}

std::size_t
MetricsRegistry::footprintBytes() const
{
    std::size_t bytes = sizeof(MetricsRegistry);
    for (const auto &[name, value] : counters_) {
        (void)value;
        bytes += sizeof(std::uint64_t) + name.size() + 48;
    }
    for (const auto &[name, hist] : histograms_)
        bytes += hist.footprintBytes() + name.size() + 48;
    return bytes;
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    os << "{\"counters\": {";
    bool first = true;
    for (const auto &[name, value] : counters_) {
        if (!first)
            os << ", ";
        first = false;
        os << '"' << jsonEscape(name) << "\": " << value;
    }
    os << "}, \"histograms\": {";
    first = true;
    for (const auto &[name, hist] : histograms_) {
        if (!first)
            os << ", ";
        first = false;
        os << '"' << jsonEscape(name) << "\": ";
        hist.writeJson(os);
    }
    os << "}}";
}

void
CounterHandle::bind()
{
    slot_ = &registry_->counters_[name_];
}

void
HistogramHandle::bind()
{
    slot_ = &registry_->histograms_[name_];
}

std::string
MetricsRegistry::toJson() const
{
    std::ostringstream ss;
    writeJson(ss);
    return ss.str();
}

} // namespace flash::util
