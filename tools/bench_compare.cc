/**
 * @file
 * Gate a bench_kernels export on a minimum speedup.
 *
 *   usage: bench_compare FILE.json --min-speedup X
 *
 * Checks every kernels.*.speedup against X, a finite number >= 0.
 * Exit codes: 0 pass, 1 regression, 2 usage or parse error — the CI
 * perf-smoke step runs it against the committed threshold. To diff
 * two JSON exports leaf by leaf, use `metrics_diff A.json B.json --rel X`.
 */

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

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    flash::util::fatalIf(!in, "cannot open " + path);
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

} // namespace

int
main(int argc, char **argv)
try {
    flash::util::Args args(argc, argv);
    const double min_speedup =
        args.number<double>("min-speedup", std::nullopt, 0.0);
    const std::string file = args.positional("FILE.json");
    args.check();

    return checkSpeedups(flash::util::parseJson(slurp(file)), min_speedup);
} catch (const std::exception &e) {
    std::cerr << "bench_compare: " << e.what() << '\n';
    return 2;
}
