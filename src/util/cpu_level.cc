#include "util/cpu_level.hh"

namespace flash::util
{

const char *
cpuLevelName(CpuLevel level)
{
    switch (level) {
      case CpuLevel::V3:
        return "x86-64-v3";
      case CpuLevel::V4:
        return "x86-64-v4";
      case CpuLevel::Baseline:
        break;
    }
    return "baseline";
}

std::span<const CpuLevel>
compiledCpuLevels()
{
#if defined(__x86_64__)
    static constexpr CpuLevel kLevels[] = {CpuLevel::Baseline, CpuLevel::V3,
                                           CpuLevel::V4};
#else
    static constexpr CpuLevel kLevels[] = {CpuLevel::Baseline};
#endif
    return kLevels;
}

bool
cpuLevelSupported(CpuLevel level)
{
#if defined(__x86_64__)
    // Safe before static constructors have run, too. Each level name
    // checks its whole feature set (v4 implies v3).
    __builtin_cpu_init();
    if (level == CpuLevel::V4)
        return __builtin_cpu_supports("x86-64-v4");
    if (level == CpuLevel::V3)
        return __builtin_cpu_supports("x86-64-v3");
#endif
    return level == CpuLevel::Baseline;
}

CpuLevel
selectedCpuLevel()
{
    static const CpuLevel selected = [] {
        CpuLevel best = CpuLevel::Baseline;
        for (const CpuLevel level : compiledCpuLevels()) {
            if (cpuLevelSupported(level))
                best = level;
        }
        return best;
    }();
    return selected;
}

} // namespace flash::util
