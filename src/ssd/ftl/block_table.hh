/**
 * @file
 * The per-block state every FTL keeps, in one flat table.
 *
 * Each physical page's owning LPN (one flat `int32` array indexed by
 * the packed page, as FEMU's `ftl.c` keeps `rmap`, SNIPPETS.md
 * Snippet 1), each block's write point, valid count and allocation
 * stamp, each plane's free list and the allocation clock. The mapping
 * policy (which LPN goes where, what a block is for) stays in the FTL
 * that owns the table.
 */

#ifndef SENTINELFLASH_SSD_FTL_BLOCK_TABLE_HH
#define SENTINELFLASH_SSD_FTL_BLOCK_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ssd/config.hh"
#include "util/fast_div.hh"
#include "util/logging.hh"

namespace flash::ssd
{

/** Physical page address. */
struct PhysAddr
{
    int plane = -1;
    int block = -1;
    int page = -1;

    bool valid() const { return plane >= 0; }
};

/**
 * The packed page number every FTL table is indexed by,
 * (plane * blocksPerPlane + block) * pagesPerBlock + page, and back.
 * unpack() divides by multiplies only (util::FastDiv): a packed page
 * is below 2^31 in any organization SsdConfig::validate() accepts.
 */
class PageLayout
{
  public:
    PageLayout(int planes, int blocks_per_plane, int pages_per_block)
        : planes_(planes),
          blocksPerPlane_(static_cast<std::uint32_t>(blocks_per_plane)),
          pagesPerBlock_(static_cast<std::uint32_t>(pages_per_block))
    {
    }

    int planes() const { return planes_; }
    int
    blocksPerPlane() const
    {
        return static_cast<int>(blocksPerPlane_.divisor());
    }
    int
    pagesPerBlock() const
    {
        return static_cast<int>(pagesPerBlock_.divisor());
    }

    /** Plane-major index of (plane, block), for per-block arrays. */
    std::size_t
    index(int plane, int block) const
    {
        return static_cast<std::size_t>(plane)
            * static_cast<std::size_t>(blocksPerPlane())
            + static_cast<std::size_t>(block);
    }

    /** Packed page number: (plane * blocksPerPlane + block) * ppb + page. */
    std::int64_t
    pack(const PhysAddr &a) const
    {
        return static_cast<std::int64_t>(index(a.plane, a.block))
            * pagesPerBlock()
            + a.page;
    }

    /** Inverse of pack(), for 0 <= packed < planes * B * ppb. */
    PhysAddr
    unpack(std::int64_t packed) const
    {
        const auto n = static_cast<std::uint32_t>(packed);
        const std::uint32_t rest = pagesPerBlock_.div(n);
        const std::uint32_t plane = blocksPerPlane_.div(rest);
        PhysAddr a;
        a.plane = static_cast<int>(plane);
        a.block = static_cast<int>(rest - plane * blocksPerPlane_.divisor());
        a.page = static_cast<int>(n - rest * pagesPerBlock_.divisor());
        return a;
    }

  private:
    int planes_;
    util::FastDiv blocksPerPlane_;
    util::FastDiv pagesPerBlock_;
};

/**
 * Flat per-block device state shared by every FTL, addressed through
 * its PageLayout.
 */
class BlockTable : public PageLayout
{
  public:
    /** Called as (plane, block) after every physical block erase. */
    using EraseHook = std::function<void(int, int)>;

    struct Block
    {
        int nextPage = 0;            ///< write point
        int validPages = 0;          ///< owners that are not -1
        std::uint64_t stampedAt = 0; ///< clock() when last taken
    };

    /**
     * Every block free, taken as 0, 1, 2, ... Owner rows are allocated
     * but not initialized: the FTL fills a row before it reads it.
     * Fatal when `config` fails SsdConfig::validate().
     */
    explicit BlockTable(const SsdConfig &config);

    /** (plane, block)'s counters; fatal when either is out of range. */
    const Block &block(int plane, int block) const;

    /** Unchecked block(), for the FTLs' own (in-range) indices. */
    Block &at(int plane, int block) { return blocks_[index(plane, block)]; }
    const Block &
    at(int plane, int block) const
    {
        return blocks_[index(plane, block)];
    }

    bool
    full(const Block &blk) const
    {
        return blk.nextPage >= pagesPerBlock();
    }

    /** Owner row of (plane, block): ppb LPNs, -1 where invalid. */
    std::int32_t *
    row(int plane, int block)
    {
        return owners_.get() + index(plane, block) * pagesPerBlock();
    }
    const std::int32_t *
    row(int plane, int block) const
    {
        return owners_.get() + index(plane, block) * pagesPerBlock();
    }

    /** Drops the owner of `a`, if it has one, from its block's count. */
    void
    invalidate(const PhysAddr &a)
    {
        std::int32_t &lpn = row(a.plane, a.block)[a.page];
        if (lpn >= 0) {
            lpn = -1;
            --at(a.plane, a.block).validPages;
        }
    }

    /** Free blocks in one plane; fatal when the plane is out of range. */
    int
    freeBlocks(int plane) const
    {
        util::fatalIf(plane < 0 || plane >= planes(),
                      "ftl: plane out of range");
        return static_cast<int>(freeList(plane).size());
    }

    /** The plane's free list, taken from the back; unchecked. */
    const std::vector<int> &
    freeList(int plane) const
    {
        return free_[static_cast<std::size_t>(plane)];
    }

    /** Fraction of all physical blocks that are free. */
    double freeFraction() const;

    /** Allocation clock: take() calls so far. */
    std::uint64_t clock() const { return clock_; }

    /**
     * Pops the plane's next free block and stamps it with the
     * advanced clock. Fatal when the plane has none.
     */
    int take(int plane);

    /** Returns a block just taken, unwritten; the clock stays. */
    void giveBack(int plane, int block);

    /**
     * Clears the owner row and counters, frees the block and fires
     * the erase hook; the FTL settles its own state first.
     */
    void erase(int plane, int block);

    void setEraseHook(EraseHook hook) { eraseHook_ = std::move(hook); }

    /**
     * The block half of an FTL's checkInvariants(); panics on the
     * first violation. For every block: no owner sits at or past the
     * write point or names an LPN at or past `logical_pages`, each
     * owner's LPN maps back to its page (`maps(lpn, page)`), and
     * the valid count equals the pages owned. Every free-listed block
     * is empty. `owners(plane, block)` gives the row to audit, so an
     * FTL with implicit rows supplies their closed form.
     */
    template <typename OwnersFn, typename MapsFn>
    void
    audit(std::int64_t logical_pages, const OwnersFn &owners,
          const MapsFn &maps) const
    {
        for (int pi = 0; pi < planes(); ++pi) {
            for (int bi = 0; bi < blocksPerPlane(); ++bi) {
                const Block &blk = at(pi, bi);
                const std::int32_t *own = owners(pi, bi);
                int valid = 0;
                for (int p = 0; p < pagesPerBlock(); ++p) {
                    const std::int32_t lpn = own[p];
                    if (lpn < 0)
                        continue;
                    ++valid;
                    util::panicIf(p >= blk.nextPage,
                                  "ftl: owner past the write point");
                    util::panicIf(lpn >= logical_pages,
                                  "ftl: owner names an LPN past the drive");
                    util::panicIf(!maps(lpn, PhysAddr{pi, bi, p}),
                                  "ftl: stale owner (LPN maps elsewhere)");
                }
                util::panicIf(valid != blk.validPages,
                              "ftl: valid-page count mismatch");
            }
            for (int b : freeList(pi)) {
                const Block &blk = at(pi, b);
                util::panicIf(blk.nextPage != 0 || blk.validPages != 0,
                              "ftl: non-empty block on the free list");
            }
        }
    }

    /** Heap bytes as allocated (free lists at full capacity). */
    std::size_t footprintBytes() const;

  private:
    std::unique_ptr<std::int32_t[]> owners_; ///< packed page -> lpn (-1)
    std::vector<Block> blocks_;              ///< per (plane, block)
    std::vector<std::vector<int>> free_;     ///< per plane, taken from back
    std::uint64_t clock_ = 0;
    EraseHook eraseHook_;
};

} // namespace flash::ssd

#endif // SENTINELFLASH_SSD_FTL_BLOCK_TABLE_HH
