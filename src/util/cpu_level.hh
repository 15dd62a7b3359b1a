/**
 * @file
 * Per-CPU vector width for the simulator's hot loops.
 *
 * A hot loop is written once, as a FLASH_ALWAYS_INLINE body, and
 * wrapped in one function per x86-64 micro-architecture level: the
 * baseline (SSE2), x86-64-v3 (AVX2) and x86-64-v4 (AVX-512). The
 * wrappers carry GCC's target("arch=...") attribute (FLASH_TARGET_V3 /
 * FLASH_TARGET_V4), so only the wrapper and the body inlined into it
 * use the wider instructions. A per-file -march flag would not do:
 * it also compiles the file's inline and template functions (std
 * algorithms, mix64) with those instructions as weak symbols, and the
 * linker may hand one of them to baseline callers, which then die
 * with SIGILL on an older CPU.
 *
 * selectedCpuLevel() picks the widest level the CPU runs, once per
 * process, with __builtin_cpu_supports. Nothing else selects a level:
 * no flag, environment variable or config field. Non-x86 builds
 * compile the baseline body only.
 *
 * The levels differ in speed only. IEEE add, sub, mul, div and sqrt
 * round correctly at every vector width, and -ffp-contract=off (set
 * on every library, src/CMakeLists.txt) bans fused multiply-adds, so
 * each level computes the same bits (tests/test_sense_kernel.cc runs
 * every level the host can execute).
 */

#ifndef SENTINELFLASH_UTIL_CPU_LEVEL_HH
#define SENTINELFLASH_UTIL_CPU_LEVEL_HH

#include <cstdint>
#include <span>

namespace flash::util
{

/** An instruction-set level a hot loop is compiled for. */
enum class CpuLevel : std::uint8_t
{
    Baseline, ///< x86-64 baseline (SSE2), or the generic build off x86
    V3,       ///< x86-64-v3: AVX2, FMA (unused), BMI2
    V4,       ///< x86-64-v4: AVX-512 F/BW/CD/DQ/VL
};

/** Printable name: "baseline", "x86-64-v3", "x86-64-v4". */
const char *cpuLevelName(CpuLevel level);

/** Levels compiled into this build, narrowest first. */
std::span<const CpuLevel> compiledCpuLevels();

/** Whether this CPU can execute @p level (and it was compiled). */
bool cpuLevelSupported(CpuLevel level);

/** The widest supported level; chosen on the first call. */
CpuLevel selectedCpuLevel();

/**
 * Pick the variant of one hot loop for @p level from its per-level
 * wrappers (v3 and v4 are ignored off x86).
 */
template <typename T>
constexpr T
forCpuLevel(CpuLevel level, T baseline, [[maybe_unused]] T v3,
            [[maybe_unused]] T v4)
{
#if defined(__x86_64__)
    if (level == CpuLevel::V4)
        return v4;
    if (level == CpuLevel::V3)
        return v3;
#endif
    (void)level;
    return baseline;
}

} // namespace flash::util

/** A hot loop's body, inlined into every per-level wrapper. */
#define FLASH_ALWAYS_INLINE inline __attribute__((always_inline))

#if defined(__x86_64__)
#define FLASH_TARGET_V3 __attribute__((target("arch=x86-64-v3")))
#define FLASH_TARGET_V4 __attribute__((target("arch=x86-64-v4")))
#else
// Off x86 the v3/v4 wrappers are never selected; they compile as
// plain copies of the baseline so callers need no #if.
#define FLASH_TARGET_V3
#define FLASH_TARGET_V4
#endif

#endif // SENTINELFLASH_UTIL_CPU_LEVEL_HH
