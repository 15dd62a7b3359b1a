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

/** Flat per-block device state shared by every FTL. */
class BlockTable
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

    int pagesPerBlock() const { return pagesPerBlock_; }

    /** Plane-major index of (plane, block), for per-block arrays. */
    std::size_t
    index(int plane, int block) const
    {
        return static_cast<std::size_t>(plane)
            * static_cast<std::size_t>(blocksPerPlane_)
            + static_cast<std::size_t>(block);
    }

    /** Packed page number: (plane * blocksPerPlane + block) * ppb + page. */
    std::int64_t
    pack(const PhysAddr &a) const
    {
        return static_cast<std::int64_t>(index(a.plane, a.block))
            * pagesPerBlock_
            + a.page;
    }

    PhysAddr
    unpack(std::int64_t packed) const
    {
        PhysAddr a;
        a.page = static_cast<int>(packed % pagesPerBlock_);
        const std::int64_t rest = packed / pagesPerBlock_;
        a.block = static_cast<int>(rest % blocksPerPlane_);
        a.plane = static_cast<int>(rest / blocksPerPlane_);
        return a;
    }

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
        return blk.nextPage >= pagesPerBlock_;
    }

    /** Owner row of (plane, block): ppb LPNs, -1 where invalid. */
    std::int32_t *
    row(int plane, int block)
    {
        return owners_.get() + index(plane, block) * pagesPerBlock_;
    }
    const std::int32_t *
    row(int plane, int block) const
    {
        return owners_.get() + index(plane, block) * pagesPerBlock_;
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
        util::fatalIf(plane < 0 || plane >= planes_,
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
        for (int pi = 0; pi < planes_; ++pi) {
            for (int bi = 0; bi < blocksPerPlane_; ++bi) {
                const Block &blk = at(pi, bi);
                const std::int32_t *own = owners(pi, bi);
                int valid = 0;
                for (int p = 0; p < pagesPerBlock_; ++p) {
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
    int planes_ = 0;
    int blocksPerPlane_ = 0;
    int pagesPerBlock_ = 0;
    std::unique_ptr<std::int32_t[]> owners_; ///< packed page -> lpn (-1)
    std::vector<Block> blocks_;              ///< per (plane, block)
    std::vector<std::vector<int>> free_;     ///< per plane, taken from back
    std::uint64_t clock_ = 0;
    EraseHook eraseHook_;
};

} // namespace flash::ssd

#endif // SENTINELFLASH_SSD_FTL_BLOCK_TABLE_HH
