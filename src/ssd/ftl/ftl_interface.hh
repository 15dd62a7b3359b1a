/**
 * @file
 * Abstract flash translation layer interface.
 *
 * Every FTL in the zoo implements this contract: logical-to-physical
 * mapping, host writes (reporting any garbage-collection or merge
 * work folded into the write), budgeted block refresh for the
 * scrubber, invariant checking, and exact statistics. Each FTL owns
 * a BlockTable with its per-block state; the block queries and the
 * erase hook are the table's, so they have one implementation here.
 * SsdSim, the scrubber, the health monitor and the fleet driver all
 * operate on `FtlInterface` alone — no caller names a concrete FTL.
 *
 * Implementations must be deterministic: identical call sequences
 * produce identical mappings, statistics and erase-hook firings.
 */

#ifndef SENTINELFLASH_SSD_FTL_INTERFACE_HH
#define SENTINELFLASH_SSD_FTL_INTERFACE_HH

#include <cstddef>
#include <cstdint>
#include <utility>

#include "ssd/ftl/block_table.hh"

namespace flash::ssd
{

/**
 * Side effects of a host write: where the page landed and any
 * garbage-collection or log-merge work that had to run first. The
 * caller charges the migrate/erase time to the device timeline.
 */
struct WriteEffect
{
    PhysAddr target;
    bool gcTriggered = false;
    int gcMigratedPages = 0;
    int gcErases = 0;
    /// FAST-style log merges folded into this write (0 for page FTL).
    int switchMerges = 0;
    int partialMerges = 0;
    int fullMerges = 0;
};

/** One budgeted slice of refreshing (rewriting) a block. */
struct RefreshStep
{
    int migratedPages = 0;   ///< refresh copies performed this step
    int gcMigratedPages = 0; ///< extra GC/merge copies triggered
    int gcErases = 0;        ///< extra GC/merge erases triggered
    bool erased = false;     ///< the block was erased this step
    bool done = false;       ///< nothing left to do for this block
    bool busy = false;       ///< block not refreshable right now
};

/** Exact, cumulative FTL statistics. */
struct FtlStats
{
    std::uint64_t hostWrites = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t migratedPages = 0;
    std::uint64_t erases = 0;
    std::uint64_t refreshPages = 0;
    std::uint64_t refreshErases = 0;
    /// FAST merge taxonomy (all zero for the page-mapping FTL).
    std::uint64_t switchMerges = 0;
    std::uint64_t partialMerges = 0;
    std::uint64_t fullMerges = 0;

    /**
     * Exact write-amplification as an integer ratio: total pages
     * programmed on behalf of the host (host writes + migrations)
     * over host writes. `waf()` derives the float at export time.
     */
    std::uint64_t wafNumerator() const { return hostWrites + migratedPages; }
    std::uint64_t wafDenominator() const { return hostWrites; }

    double waf() const
    {
        if (hostWrites == 0)
            return 1.0;
        return 1.0
            + static_cast<double>(migratedPages)
            / static_cast<double>(hostWrites);
    }
};

/** Abstract FTL: the contract every mapping policy implements. */
class FtlInterface
{
  public:
    using EraseHook = BlockTable::EraseHook;

    virtual ~FtlInterface() = default;

    /** Short stable name for reports ("page", "fast"). */
    virtual const char *name() const = 0;

    /** Physical location of a logical page ({} if unmapped). */
    virtual PhysAddr translate(std::int64_t lpn) const = 0;

    /** Host write of one logical page; reports folded-in GC work. */
    virtual WriteEffect write(std::int64_t lpn) = 0;

    /**
     * Migrate up to `max_pages` valid pages out of (plane, block) and
     * erase it once drained. Incremental: callers re-invoke until
     * `done`. Must tolerate the block being erased, recycled or
     * reused by concurrent host writes between steps.
     */
    virtual RefreshStep refreshBlock(int plane, int block, int max_pages) = 0;

    /** Whether (plane, block) is currently eligible for refresh. */
    virtual bool refreshCandidate(int plane, int block) const = 0;

    virtual std::int64_t logicalPages() const = 0;

    virtual const FtlStats &stats() const = 0;

    /** The FTL's per-block state: owners, counters and free lists. */
    virtual const BlockTable &blocks() const = 0;

    /** Valid pages currently in a physical block. */
    int
    blockValidPages(int plane, int block) const
    {
        return blocks().block(plane, block).validPages;
    }

    /** Install the erase notification hook (single hook). */
    void setEraseHook(EraseHook hook) { table().setEraseHook(std::move(hook)); }

    /** Free (erased, unallocated) blocks in one plane. */
    int freeBlocks(int plane) const { return blocks().freeBlocks(plane); }

    /** Fraction of all physical blocks currently free. */
    double freeFraction() const { return blocks().freeFraction(); }

    /** Bytes of the tables at their allocated size, not as touched. */
    virtual std::size_t footprintBytes() const = 0;

    /**
     * Full consistency audit of mapping tables, reverse maps and
     * free lists; panics on any violation. O(physical pages) — for
     * tests and the scrubber's debug flag, not hot paths.
     */
    virtual void checkInvariants() const = 0;

  protected:
    /** Writable blocks(). */
    virtual BlockTable &table() = 0;
};

} // namespace flash::ssd

#endif // SENTINELFLASH_SSD_FTL_INTERFACE_HH
