/**
 * @file
 * SSD organization and timing configuration (SSDSim-style).
 */

#ifndef SENTINELFLASH_SSD_CONFIG_HH
#define SENTINELFLASH_SSD_CONFIG_HH

#include <cstdint>
#include <initializer_list>

#include "util/logging.hh"

namespace flash::ssd
{

/** Which flash translation layer a simulated device runs. */
enum class FtlKind
{
    Page, ///< page-mapping FTL with dynamic allocation (the default)
    Fast, ///< FAST-style hybrid: block-mapped data + SW/RW log blocks
};

/** GC victim-selection policy, shared by every FTL. */
enum class GcVictimPolicy
{
    Greedy,      ///< fewest valid pages (lowest block id breaks ties)
    CostBenefit, ///< age x utilization score (hot/cold aware)
};

/** Physical organization of the simulated SSD. */
struct SsdConfig
{
    int channels = 8;
    int chipsPerChannel = 4;
    int diesPerChip = 2;
    int planesPerDie = 2;
    int blocksPerPlane = 128;
    int pagesPerBlock = 384;
    int pageKb = 16;           ///< user data per page

    /** Fraction of capacity reserved as over-provisioning. */
    double overprovision = 0.12;

    /** GC kicks in when a plane's free-block fraction drops below. */
    double gcThreshold = 0.05;

    /** Which FTL runs the device. */
    FtlKind ftl = FtlKind::Page;

    /** GC victim-selection policy (used by every FTL). */
    GcVictimPolicy gcPolicy = GcVictimPolicy::Greedy;

    /**
     * Overlap attempt N+1's sensing with attempt N's transfer +
     * decode (CACHE-READ-style speculative retry). Off: sequential
     * retry, each attempt waits for the previous decode verdict.
     */
    bool pipelinedRetry = false;

    int totalPlanes() const
    {
        return channels * chipsPerChannel * diesPerChip * planesPerDie;
    }

    std::int64_t physicalPages() const
    {
        return static_cast<std::int64_t>(totalPlanes()) * blocksPerPlane
            * pagesPerBlock;
    }

    /** Logical pages exported to the host (after over-provisioning). */
    std::int64_t logicalPages() const
    {
        return static_cast<std::int64_t>(
            static_cast<double>(physicalPages()) * (1.0 - overprovision));
    }

    void
    validate() const
    {
        util::fatalIf(channels < 1 || chipsPerChannel < 1 || diesPerChip < 1
                          || planesPerDie < 1 || blocksPerPlane < 2
                          || pagesPerBlock < 1 || pageKb < 1,
                      "SsdConfig: bad organization");
        // Stepwise in 64 bits: no product overflows before its check.
        std::int64_t n = channels;
        for (int f : {chipsPerChannel, diesPerChip, planesPerDie})
            util::fatalIf((n *= f) > INT32_MAX,
                          "SsdConfig: plane count overflows int");
        for (int f : {blocksPerPlane, pagesPerBlock})
            util::fatalIf((n *= f) > INT32_MAX,
                          "SsdConfig: physical pages overflow the 32-bit "
                          "page tables");
        util::fatalIf(overprovision <= 0.0 || overprovision >= 0.5,
                      "SsdConfig: bad over-provisioning");
    }
};

/** Flash and interface timing. */
struct SsdTiming
{
    double senseUs = 12.0;        ///< per read-voltage application
    double readBaseUs = 13.0;     ///< fixed per page-read attempt
    double programUs = 660.0;     ///< page program
    double eraseUs = 3500.0;      ///< block erase
    double transferUsPerKb = 0.8; ///< channel transfer per KiB
    double decodeUs = 10.0;       ///< ECC decode attempt

    void
    validate() const
    {
        util::fatalIf(senseUs <= 0.0 || readBaseUs <= 0.0
                          || programUs <= 0.0 || eraseUs <= 0.0
                          || transferUsPerKb <= 0.0 || decodeUs < 0.0,
                      "SsdTiming: non-positive timing parameter");
    }
};

} // namespace flash::ssd

#endif // SENTINELFLASH_SSD_CONFIG_HH
