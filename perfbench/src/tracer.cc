#include "tracer.hh"

#include <algorithm>

#include "util/metrics.hh"

namespace perfbench
{

Tracer::Scope::~Scope()
{
    if (tracer_ && id_ >= 0)
        tracer_->close(id_);
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - origin_)
        .count();
}

int
Tracer::open(const std::string &name, const std::string &tag)
{
    Span s;
    s.name = name;
    s.tag = tag;
    s.unit = static_cast<int>(unitKinds_.size()) - 1;
    s.parent = current_;
    s.start = now();
    spans_.push_back(std::move(s));
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
Tracer::close(int id)
{
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.end = now();
    current_ = s.parent;
}

void
Tracer::beginUnit(const std::string &kind)
{
    if (mode_ == Mode::Off)
        return;
    endUnit();
    unitKinds_.push_back(kind);
    unitRoot_ = open("bench", kind);
}

void
Tracer::endUnit()
{
    if (mode_ == Mode::Off || unitRoot_ < 0)
        return;
    close(unitRoot_);
    unitRoot_ = -1;
    current_ = -1;
}

Tracer::Scope
Tracer::span(const char *layer, const std::string &tag)
{
    const bool record = mode_ == Mode::Full
        || (mode_ == Mode::Steps && unitRoot_ >= 0 && current_ == unitRoot_);
    if (!record)
        return Scope(nullptr, -1);
    return Scope(this, open(layer, tag));
}

int
Tracer::units(const std::string &kind) const
{
    return static_cast<int>(
        std::count(unitKinds_.begin(), unitKinds_.end(), kind));
}

std::vector<double>
Tracer::selfSeconds() const
{
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double dur = s.end - s.start;
        self[i] += dur;
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= dur;
    }
    return self;
}

std::map<std::string, double>
Tracer::medianSelfSeconds(const std::string &kind) const
{
    // Per unit of the requested kind: summed self time by layer.
    const std::vector<double> self = selfSeconds();
    std::map<int, std::map<std::string, double>> by_unit;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (unitKinds_[static_cast<std::size_t>(s.unit)] == kind)
            by_unit[s.unit][s.name] += self[i];
    }
    std::map<std::string, std::vector<double>> per_layer;
    for (const auto &[unit, layers] : by_unit) {
        for (const auto &[name, secs] : layers)
            per_layer[name].push_back(secs);
    }

    std::map<std::string, double> out;
    for (auto &[name, v] : per_layer) {
        std::sort(v.begin(), v.end());
        const std::size_t n = v.size();
        out[name] = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    }
    return out;
}

double
Tracer::fastestStepsSeconds(const std::string &kind) const
{
    // A unit's steps are the children of its root span; time outside
    // them (the benchmark's own checks) is not counted.
    std::map<std::string, double> fastest;
    for (const Span &s : spans_) {
        if (unitKinds_[static_cast<std::size_t>(s.unit)] != kind
            || s.parent < 0
            || spans_[static_cast<std::size_t>(s.parent)].parent >= 0)
            continue;
        const double secs = s.end - s.start;
        const std::string key = s.name + '\n' + s.tag;
        const auto it = fastest.find(key);
        if (it == fastest.end() || secs < it->second)
            fastest[key] = secs;
    }
    double total = 0.0;
    for (const auto &[key, secs] : fastest)
        total += secs;
    return total;
}

void
Tracer::writeJsonLines(std::ostream &os) const
{
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"unit\": " << s.unit << ", \"unit_kind\": \""
           << unitKinds_[static_cast<std::size_t>(s.unit)]
           << "\", \"name\": \"" << flash::util::jsonEscape(s.name)
           << "\", \"tag\": \"" << flash::util::jsonEscape(s.tag)
           << "\", \"start_s\": " << flash::util::jsonNumber(s.start)
           << ", \"end_s\": " << flash::util::jsonNumber(s.end) << "}\n";
    }
}

} // namespace perfbench
