/**
 * @file
 * Gate a bench_kernels export on a minimum speedup.
 *
 *   bench_compare FILE.json --min-speedup X
 *
 * Checks every kernels.*.speedup against X, a finite number >= 0.
 * Exit codes: 0 pass, 1 regression, 2 usage or parse error — the CI
 * perf-smoke step runs it against the committed threshold. To diff
 * two JSON exports leaf by leaf, use `metrics_diff A B --rel R`.
 */

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "util/json.hh"
#include "util/logging.hh"

using flash::util::JsonValue;

namespace
{

std::string
slurp(const char *path)
{
    std::ifstream in(path);
    flash::util::fatalIf(!in, std::string("cannot open ") + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** kernels.*.speedup >= min_speedup for every kernel. */
int
checkSpeedups(const JsonValue &doc, double min_speedup)
{
    const JsonValue *kernels = doc.find("kernels");
    if (!kernels || !kernels->isObject()) {
        std::cerr << "bench_compare: no \"kernels\" object in input\n";
        return 2;
    }
    if (kernels->object.empty()) {
        std::cerr << "bench_compare: no kernels in input\n";
        return 2;
    }
    int failures = 0;
    for (const auto &[name, kernel] : kernels->object) {
        const JsonValue *speedup = kernel.find("speedup");
        if (!speedup || !speedup->isNumber()) {
            std::cerr << "bench_compare: kernel " << name
                      << " has no numeric speedup\n";
            return 2;
        }
        const bool ok = speedup->number >= min_speedup;
        std::cout << name << ": speedup " << speedup->number
                  << (ok ? " >= " : " < ") << min_speedup
                  << (ok ? "" : "  FAIL") << '\n';
        failures += !ok;
    }
    return failures ? 1 : 0;
}

[[noreturn]] void
usage(const std::string &error = {})
{
    if (!error.empty())
        std::cerr << "bench_compare: " << error << '\n';
    std::cerr << "usage: bench_compare FILE.json --min-speedup X\n";
    std::exit(2);
}

/** The whole of @p text as a finite number >= 0, else a usage error. */
double
threshold(const char *text)
{
    const char *end = text + std::strlen(text);
    double v = 0.0;
    const auto res = std::from_chars(text, end, v);
    if (res.ec != std::errc() || res.ptr != end || !std::isfinite(v)
        || v < 0.0) {
        usage(std::string("--min-speedup: expected a finite number >= 0, "
                          "got \"")
              + text + '"');
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *file = nullptr;
    std::optional<double> min_speedup;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--min-speedup") && i + 1 < argc) {
            min_speedup = threshold(argv[++i]);
        } else if (!file) {
            file = argv[i];
        } else {
            usage();
        }
    }
    if (!file || !min_speedup)
        usage();

    try {
        return checkSpeedups(flash::util::parseJson(slurp(file)),
                             *min_speedup);
    } catch (const std::exception &e) {
        std::cerr << "bench_compare: " << e.what() << '\n';
        return 2;
    }
}
