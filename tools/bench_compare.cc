/**
 * @file
 * Gate a bench_kernels / bench_model export on minimum speedups.
 *
 *   bench_compare FILE.json --min-speedup X [--kernel NAME]
 *
 * Checks every kernels.*.speedup (or just --kernel NAME) against X.
 * Exit codes: 0 pass, 1 regression, 2 usage or parse error — the CI
 * perf-smoke step runs it against the committed thresholds. To diff
 * two JSON exports leaf by leaf, use `metrics_diff A B --rel R`.
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
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

/** kernels.*.speedup >= min_speedup (optionally one kernel only). */
int
checkSpeedups(const JsonValue &doc, double min_speedup,
              const std::string &only_kernel)
{
    const JsonValue *kernels = doc.find("kernels");
    if (!kernels || !kernels->isObject()) {
        std::cerr << "bench_compare: no \"kernels\" object in input\n";
        return 2;
    }
    int checked = 0;
    int failures = 0;
    for (const auto &[name, kernel] : kernels->object) {
        if (!only_kernel.empty() && name != only_kernel)
            continue;
        const JsonValue *speedup = kernel.find("speedup");
        if (!speedup || !speedup->isNumber()) {
            std::cerr << "bench_compare: kernel " << name
                      << " has no numeric speedup\n";
            return 2;
        }
        ++checked;
        const bool ok = speedup->number >= min_speedup;
        std::cout << name << ": speedup " << speedup->number
                  << (ok ? " >= " : " < ") << min_speedup
                  << (ok ? "" : "  FAIL") << '\n';
        failures += !ok;
    }
    if (checked == 0) {
        std::cerr << "bench_compare: no kernel matched"
                  << (only_kernel.empty() ? "" : " " + only_kernel) << '\n';
        return 2;
    }
    return failures ? 1 : 0;
}

void
usage()
{
    std::cerr << "usage: bench_compare FILE.json --min-speedup X "
                 "[--kernel NAME]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *file = nullptr;
    double min_speedup = -1.0;
    std::string only_kernel;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--min-speedup") && i + 1 < argc) {
            min_speedup = std::atof(argv[++i]);
        } else if (!std::strcmp(argv[i], "--kernel") && i + 1 < argc) {
            only_kernel = argv[++i];
        } else if (!file) {
            file = argv[i];
        } else {
            usage();
        }
    }
    if (!file || min_speedup < 0.0)
        usage();

    try {
        return checkSpeedups(flash::util::parseJson(slurp(file)),
                             min_speedup, only_kernel);
    } catch (const std::exception &e) {
        std::cerr << "bench_compare: " << e.what() << '\n';
        return 2;
    }
}
