/**
 * @file
 * Compare two metrics JSON exports with tolerances.
 *
 *   usage: metrics_diff A.json B.json [--rel X] [--abs X] [--max-report N]
 *                       [--quiet]
 *
 * Walks both documents; every numeric leaf must satisfy
 * |a - b| <= abs + rel * max(|a|, |b|) (--abs, --rel: finite,
 * >= 0); strings/booleans must match exactly; keys must exist on
 * both sides. Prints one line per difference (path, values, delta)
 * up to the first N differing keys (--max-report, default 20; later
 * differences are counted but not printed) and exits 1 when any
 * survive the tolerances, 0 otherwise.
 * Defaults are exact comparison (rel = abs = 0), the right setting
 * for the deterministic exports; pass tolerances when comparing
 * across configurations.
 */

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "util/args.hh"
#include "util/json.hh"
#include "util/logging.hh"

using flash::util::JsonValue;

namespace
{

struct Options
{
    double rel = 0.0;
    double abs = 0.0;
    std::size_t maxReport = 20;
    bool quiet = false;
};

struct DiffState
{
    Options opt;
    std::size_t leaves = 0;
    std::size_t differences = 0;

    void
    report(const std::string &path, const std::string &what)
    {
        ++differences;
        if (!quietLimitHit())
            std::cout << path << ": " << what << '\n';
    }

    bool
    quietLimitHit() const
    {
        return opt.quiet || differences > opt.maxReport;
    }
};

const char *
typeName(JsonValue::Type t)
{
    switch (t) {
    case JsonValue::Type::Null: return "null";
    case JsonValue::Type::Bool: return "bool";
    case JsonValue::Type::Number: return "number";
    case JsonValue::Type::String: return "string";
    case JsonValue::Type::Array: return "array";
    case JsonValue::Type::Object: return "object";
    }
    return "?";
}

void
diffValue(const std::string &path, const JsonValue &a, const JsonValue &b,
          DiffState &st)
{
    if (a.type != b.type) {
        st.report(path, std::string("type ") + typeName(a.type) + " vs "
                            + typeName(b.type));
        return;
    }
    switch (a.type) {
    case JsonValue::Type::Object: {
        for (const auto &[key, av] : a.object) {
            const JsonValue *bv = b.find(key);
            if (!bv) {
                st.report(path + "/" + key, "missing in B");
                continue;
            }
            diffValue(path + "/" + key, av, *bv, st);
        }
        for (const auto &[key, bv] : b.object) {
            if (!a.find(key))
                st.report(path + "/" + key, "missing in A");
        }
        break;
    }
    case JsonValue::Type::Array: {
        if (a.array.size() != b.array.size()) {
            st.report(path, "array length " + std::to_string(a.array.size())
                                + " vs " + std::to_string(b.array.size()));
            break;
        }
        for (std::size_t i = 0; i < a.array.size(); ++i)
            diffValue(path + "[" + std::to_string(i) + "]", a.array[i],
                      b.array[i], st);
        break;
    }
    case JsonValue::Type::Number: {
        ++st.leaves;
        const double tol = st.opt.abs
            + st.opt.rel * std::max(std::abs(a.number), std::abs(b.number));
        if (!(std::abs(a.number - b.number) <= tol)) {
            std::ostringstream msg;
            msg.precision(17);
            msg << a.number << " vs " << b.number
                << " (|delta| = " << std::abs(a.number - b.number)
                << ", tol = " << tol << ")";
            st.report(path, msg.str());
        }
        break;
    }
    case JsonValue::Type::String:
        ++st.leaves;
        if (a.string != b.string)
            st.report(path, "\"" + a.string + "\" vs \"" + b.string + "\"");
        break;
    case JsonValue::Type::Bool:
        ++st.leaves;
        if (a.boolean != b.boolean)
            st.report(path, "boolean mismatch");
        break;
    case JsonValue::Type::Null:
        ++st.leaves;
        break;
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    flash::util::fatalIf(!in, "cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

int
main(int argc, char **argv)
try {
    flash::util::Args args(argc, argv);
    Options opt;
    opt.rel = args.number<double>("rel", opt.rel, 0.0);
    opt.abs = args.number<double>("abs", opt.abs, 0.0);
    opt.maxReport = args.number<std::size_t>("max-report", opt.maxReport, 0);
    opt.quiet = args.flag("quiet");
    const std::string file_a = args.positional("A.json");
    const std::string file_b = args.positional("B.json");
    args.check();

    const JsonValue a = flash::util::parseJson(slurp(file_a));
    const JsonValue b = flash::util::parseJson(slurp(file_b));
    DiffState st;
    st.opt = opt;
    diffValue("", a, b, st);
    if (st.differences == 0) {
        std::cout << "identical within tolerance (" << st.leaves
                  << " leaves, rel " << opt.rel << ", abs " << opt.abs
                  << ")\n";
        return 0;
    }
    std::cout << st.differences << " difference(s) over " << st.leaves
              << " compared leaves\n";
    return 1;
} catch (const std::exception &e) {
    std::cerr << "metrics_diff: " << e.what() << '\n';
    return 2;
}
