#include "util/args.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <type_traits>

#include "util/logging.hh"

namespace flash::util
{

namespace
{

/** Usage lines wrap before this column. */
constexpr std::size_t kUsageWidth = 79;

bool
isFlag(const std::string &token)
{
    return token.rfind("--", 0) == 0;
}

} // namespace

Args::Args(int argc, char **argv)
    : prog_(argc > 0 ? argv[0] : ""),
      args_(argv + std::min(argc, 1), argv + argc)
{
    prog_.erase(0, prog_.find_last_of('/') + 1); // npos + 1 == 0
}

Args::Parsed
Args::parse() const
{
    Parsed p;
    const auto fail = [&p](const std::string &msg) {
        if (p.error.empty())
            p.error = msg;
    };
    for (std::size_t i = 0; i < args_.size(); ++i) {
        const std::string &a = args_[i];
        if (!isFlag(a)) {
            if (a.rfind('-', 0) == 0
                || p.positionals.size() >= positionals_.size())
                fail("unexpected argument \"" + a + '"');
            p.positionals.push_back(a);
            continue;
        }
        const std::size_t eq = a.find('=');
        const std::string name = a.substr(2, eq - 2); // npos - 2: the end
        const auto d =
            std::find_if(flags_.begin(), flags_.end(),
                         [&](const Decl &f) { return f.name == name; });
        if (d == flags_.end()) {
            fail("unknown flag --" + name);
            continue;
        }
        const bool bare = d->meta.empty();
        std::string &v = p.values[name];
        if (eq != std::string::npos)
            v = a.substr(eq + 1);
        else if (!bare && i + 1 < args_.size() && !isFlag(args_[i + 1]))
            v = args_[++i];
        else
            v.clear();
        if (bare && eq != std::string::npos)
            fail("--" + name + " takes no value");
        else if (!bare && v.empty())
            fail("--" + name + ": missing value");
    }
    return p;
}

std::optional<std::string>
Args::value(const std::string &name, const std::string &meta,
            bool required)
{
    panicIf(checked_ || !positionals_.empty(),
            "Args: --" + name + " declared after a positional or check()");
    flags_.push_back({name, meta, required});
    const Parsed p = parse();
    const auto it = p.values.find(name);
    if (it == p.values.end()) {
        if (required)
            reject("missing --" + name + ' ' + meta);
        return std::nullopt;
    }
    return it->second;
}

template <typename T>
T
Args::number(const std::string &name,
             std::type_identity_t<std::optional<T>> fallback,
             std::type_identity_t<T> lo, std::type_identity_t<T> hi)
{
    const std::optional<std::string> text =
        value(name, std::is_integral_v<T> ? "N" : "X", !fallback);
    if (!text)
        return fallback.value_or(T{});
    T v{};
    const char *end = text->data() + text->size();
    const auto [ptr, ec] = std::from_chars(text->data(), end, v);
    std::ostringstream error;
    if (ec == std::errc::invalid_argument || ptr != end) {
        error << "--" << name << ": expected "
              << (std::is_integral_v<T> ? "an integer" : "a number")
              << ", got \"" << *text << '"';
    } else if (ec == std::errc::result_out_of_range
               || !(v >= lo && v <= hi)) {
        error << "--" << name << ": value " << *text << " out of range ["
              << lo << ", " << hi << ']';
    } else {
        return v;
    }
    reject(error.str());
    return fallback.value_or(T{});
}

template int Args::number<int>(const std::string &, std::optional<int>, int,
                               int);
template long Args::number<long>(const std::string &, std::optional<long>,
                                 long, long);
template unsigned long Args::number<unsigned long>(
    const std::string &, std::optional<unsigned long>, unsigned long,
    unsigned long);
template double Args::number<double>(const std::string &,
                                     std::optional<double>, double, double);

std::string
Args::text(const std::string &name, const std::string &meta,
           const std::string &fallback)
{
    return value(name, meta).value_or(fallback);
}

std::string
Args::choice(const std::string &name,
             const std::vector<std::string> &choices,
             const std::string &fallback)
{
    std::string meta;
    for (const std::string &c : choices)
        meta += (meta.empty() ? "" : "|") + c;
    const std::optional<std::string> v = value(name, meta);
    if (!v || std::find(choices.begin(), choices.end(), *v) != choices.end())
        return v.value_or(fallback);
    reject("--" + name + ": expected " + meta + ", got \"" + *v + '"');
    return fallback;
}

bool
Args::flag(const std::string &name)
{
    return value(name, "").has_value();
}

std::string
Args::positional(const std::string &meta, bool required)
{
    panicIf(checked_, "Args: positional declared after check()");
    positionals_.push_back({meta, "", required});
    const Parsed p = parse();
    if (positionals_.size() <= p.positionals.size())
        return p.positionals[positionals_.size() - 1];
    if (required)
        reject("missing " + meta);
    return {};
}

void
Args::check()
{
    panicIf(checked_, "Args: check() called twice");
    checked_ = true;
    std::string error = parse().error;
    if (error.empty())
        error = error_;
    if (error.empty())
        return;
    std::cerr << prog_ << ": " << error << '\n' << usage() << '\n';
    std::exit(2);
}

std::string
Args::usage() const
{
    std::string out = "usage: " + prog_;
    const std::string indent(out.size() + 1, ' ');
    std::size_t col = out.size();
    const auto add = [&](std::string item, bool required) {
        if (!required)
            item = '[' + item + ']';
        const bool wrap =
            col > indent.size() && col + 1 + item.size() > kUsageWidth;
        out += (wrap ? '\n' + indent : " ") + item;
        col = (wrap ? indent.size() : col + 1) + item.size();
    };
    for (const Decl &p : positionals_)
        add(p.name, p.required);
    for (const Decl &f : flags_)
        add("--" + f.name + (f.meta.empty() ? "" : ' ' + f.meta),
            f.required);
    return out;
}

} // namespace flash::util
