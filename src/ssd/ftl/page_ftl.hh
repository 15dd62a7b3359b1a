/**
 * @file
 * Page-mapping FTL with dynamic allocation and pluggable victim
 * selection.
 *
 * Logical pages map to arbitrary physical pages; writes stripe
 * round-robin over planes into per-plane active blocks; when a
 * plane runs out of free blocks a victim chosen by the configured
 * GC policy is collected (valid pages migrate, block erased). A
 * write whose plane has no room that GC can reclaim goes to the next
 * plane that has. With the default greedy policy the behavior is
 * byte-identical to the historic monolithic `ssd/ftl.{hh,cc}`
 * implementation.
 */

#ifndef SENTINELFLASH_SSD_FTL_PAGE_FTL_HH
#define SENTINELFLASH_SSD_FTL_PAGE_FTL_HH

#include <memory>
#include <vector>

#include "ssd/ftl/ftl_interface.hh"
#include "util/fast_div.hh"

namespace flash::ssd
{

/** Page-mapping flash translation layer. */
class PageFtl : public FtlInterface
{
  public:
    /**
     * @param precondition When true, every logical page is mapped
     *        sequentially up front (a full drive), so reads always
     *        hit mapped pages and GC pressure is realistic. The
     *        layout equals what write(0), ..., write(logicalPages() -
     *        1) leaves on an empty drive, minus the stats, and stays
     *        implicit until each part of it is first changed (see
     *        mapped(), owner()). Fatal when those writes would run
     *        GC, i.e. when `overprovision` is too small for
     *        `gcThreshold`.
     */
    explicit PageFtl(const SsdConfig &config, bool precondition = true);

    const char *name() const override { return "page"; }
    PhysAddr translate(std::int64_t lpn) const override;
    WriteEffect write(std::int64_t lpn) override;
    RefreshStep refreshBlock(int plane, int block, int max_pages) override;
    bool refreshCandidate(int plane, int block) const override;
    std::int64_t logicalPages() const override { return logicalPages_; }
    const FtlStats &stats() const override { return stats_; }
    const BlockTable &blocks() const override { return blocks_; }
    std::size_t footprintBytes() const override;
    void checkInvariants() const override;

    /**
     * GC runs ahead of demand while a plane has fewer free blocks than
     * this: the count of n in [0, blocks_per_plane] with
     * n / blocks_per_plane < gc_threshold (in doubles), which, as that
     * fraction grows with n, are exactly the n below the count.
     */
    static int gcFreeBlocks(int blocks_per_plane, double gc_threshold);

  private:
    /// Corrupts the tables in the checkInvariants() tests.
    friend struct PageFtlProbe;

    /** LPNs per map_ chunk (one materialized flag each). */
    static constexpr std::int64_t kMapChunk = 256;

    BlockTable &table() override { return blocks_; }

    void fillSequential();
    PhysAddr allocate(int plane_idx, WriteEffect &effect);
    /**
     * One GC run on the plane's policy victim. Not @p on_demand (the
     * plane is only running low), an all-valid victim is left alone.
     */
    void collectGarbage(int plane_idx, WriteEffect &effect, bool on_demand);
    /** The plane's GC victim under the configured policy, or -1. */
    int policyVictim(int plane_idx) const;
    /** Whether the plane's active block is missing or full. */
    bool activeFull(int plane_idx) const;
    /**
     * Whether allocate() can place a page on the plane: its active
     * block has room, a block is free, or the GC a demand runs frees a
     * page. Where it is false, allocate() would find no free block.
     */
    bool canTake(int plane_idx) const;

    /** map_[lpn], or its closed form while the chunk is not live. */
    std::int32_t mapped(std::int64_t lpn) const;
    /** Writable map_[lpn]; copies the chunk's closed form in first. */
    std::int32_t &mapSlot(std::int64_t lpn);
    /** Owner of (plane, block, page), closed form until live. */
    std::int32_t owner(int plane, int block, int page) const;
    /** Writable owner row of (plane, block); copies it in first. */
    std::int32_t *ownerRow(int plane, int block);
    /** Records `lpn` as written at `addr`: owner, count and map. */
    void place(const PhysAddr &addr, std::int64_t lpn);

    SsdConfig config_;
    BlockTable blocks_;
    util::FastDiv planes_; ///< totalPlanes(), for the closed forms
    std::int64_t logicalPages_ = 0;
    std::int64_t filled_ = 0; ///< LPNs below hold the sequential layout
    std::unique_ptr<std::int32_t[]> map_; ///< lpn -> packed page (-1)
    std::vector<bool> mapLive_;           ///< per kMapChunk LPNs
    std::vector<std::uint8_t> ownersLive_; ///< per table index: row copied in
    std::vector<int> active_;             ///< per plane: active block (-1)
    FtlStats stats_;
    int planeCursor_ = 0; ///< plane of the next host write
    int gcFreeBlocks_;    ///< gcFreeBlocks() of the config
};

} // namespace flash::ssd

#endif // SENTINELFLASH_SSD_FTL_PAGE_FTL_HH
