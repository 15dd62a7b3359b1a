/**
 * @file
 * FAST-style hybrid log-block FTL.
 *
 * The logical space is block-mapped: logical block `lbn` lives on
 * plane `lbn % planes` in one data block whose page offsets mirror
 * the logical offsets. Overwrites go to page-mapped log blocks: one
 * sequential-write (SW) log absorbs streams that restart at offset
 * 0, a small set of random-write (RW) logs absorbs everything else.
 * Reclamation is by merge:
 *
 *  - switch merge:  a fully-written SW log simply becomes the data
 *                   block (one erase, zero copies);
 *  - partial merge: a partially-written SW log is retired by
 *                   rebuilding its logical block (newest pages from
 *                   SW + data + RW) into a fresh aligned data block;
 *  - full merge:    an RW log victim (chosen by the GC policy) is
 *                   recycled by rebuilding every logical block that
 *                   still has valid pages in it, then erased.
 *
 * Cf. SNIPPETS.md Snippet 3 (SimpleSSD FAST deliverable). The
 * physical bookkeeping (owners, write points, valid counts, free
 * lists, take, erase and the block audit) is the BlockTable the page
 * FTL uses too; this class keeps only FAST's policy: each block's
 * role and lbn, the slot map, the SW log and the RW ring.
 */

#ifndef SENTINELFLASH_SSD_FTL_FAST_FTL_HH
#define SENTINELFLASH_SSD_FTL_FAST_FTL_HH

#include <vector>

#include "ssd/ftl/ftl_interface.hh"

namespace flash::ssd
{

/** FAST hybrid log-block flash translation layer. */
class FastFtl : public FtlInterface
{
  public:
    explicit FastFtl(const SsdConfig &config, bool precondition = true);

    const char *name() const override { return "fast"; }
    PhysAddr translate(std::int64_t lpn) const override;
    WriteEffect write(std::int64_t lpn) override;
    RefreshStep refreshBlock(int plane, int block, int max_pages) override;
    bool refreshCandidate(int plane, int block) const override;
    std::int64_t logicalPages() const override { return logicalPages_; }
    const FtlStats &stats() const override { return stats_; }
    const BlockTable &blocks() const override { return blocks_; }
    std::size_t footprintBytes() const override;
    void checkInvariants() const override;

  private:
    /// Corrupts the tables in the checkInvariants() tests.
    friend struct FastFtlProbe;

    enum class Role : std::uint8_t
    {
        Free,     ///< erased, on the free list
        Data,     ///< block-mapped data block for one lbn
        SwLog,    ///< the plane's sequential-write log block
        RwLog,    ///< one of the plane's random-write log blocks
        Retiring, ///< former data block being drained by refresh
    };

    /** What a block is for; indexed by BlockTable::index(). */
    struct Use
    {
        Role role = Role::Free;
        std::int64_t lbn = -1; ///< served lbn (Data/SwLog/Retiring)
    };

    struct Plane
    {
        std::vector<int> slotToBlock; ///< local lbn slot -> data pbn (-1)
        int swBlock = -1;             ///< current SW log (-1 none)
        std::vector<int> rwBlocks;    ///< RW logs, oldest first
    };

    BlockTable &table() override { return blocks_; }

    void writePage(std::int64_t lpn, WriteEffect &effect);
    int dataBlockFor(std::int64_t lbn, WriteEffect &effect);
    void place(std::int64_t lpn, int plane_idx, int pbn, int pos);
    int ensureRwSpace(int plane_idx, WriteEffect &effect);
    void mergeSw(int plane_idx, WriteEffect &effect);
    void fullMerge(int plane_idx, WriteEffect &effect);
    void rebuildLbn(int plane_idx, std::int64_t lbn, WriteEffect &effect);
    int takeFreeBlock(int plane_idx, WriteEffect &effect);
    void eraseBlock(int plane_idx, int pbn);

    Use &
    use(int plane, int block)
    {
        return uses_[blocks_.index(plane, block)];
    }
    const Use &
    use(int plane, int block) const
    {
        return uses_[blocks_.index(plane, block)];
    }

    int slotOf(std::int64_t lbn) const
    {
        return static_cast<int>(lbn / config_.totalPlanes());
    }

    int planeOf(std::int64_t lbn) const
    {
        return static_cast<int>(lbn % config_.totalPlanes());
    }

    SsdConfig config_;
    BlockTable blocks_;
    std::int64_t logicalPages_;
    int rwCap_; ///< max RW log blocks per plane
    std::vector<std::int32_t> map_; ///< lpn -> packed phys page (-1)
    std::vector<Use> uses_;
    std::vector<Plane> planes_;
    FtlStats stats_;
};

} // namespace flash::ssd

#endif // SENTINELFLASH_SSD_FTL_FAST_FTL_HH
