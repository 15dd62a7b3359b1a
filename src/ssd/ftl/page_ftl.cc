#include "ssd/ftl/page_ftl.hh"

#include <algorithm>
#include <string>

#include "ssd/ftl/victim_policy.hh"

namespace flash::ssd
{

PageFtl::PageFtl(const SsdConfig &config, bool precondition)
    : config_(config)
{
    config_.validate();
    logicalPages_ = config_.logicalPages();

    // Allocated, not initialized: a table page is first touched when
    // a chunk or block goes live (mapSlot(), ownerRow()). Until then
    // an entry reads as its closed form: the sequential layout below
    // filled_, unmapped / invalid (-1) above it.
    map_ = std::make_unique_for_overwrite<std::int32_t[]>(
        static_cast<std::size_t>(logicalPages_));
    mapLive_.assign(
        static_cast<std::size_t>((logicalPages_ + kMapChunk - 1) / kMapChunk),
        false);
    owner_ = std::make_unique_for_overwrite<std::int32_t[]>(
        static_cast<std::size_t>(config_.physicalPages()));
    planes_.resize(static_cast<std::size_t>(config_.totalPlanes()));
    for (auto &plane : planes_) {
        plane.blocks.resize(static_cast<std::size_t>(config_.blocksPerPlane));
        plane.freeList.reserve(
            static_cast<std::size_t>(config_.blocksPerPlane));
        for (int b = config_.blocksPerPlane - 1; b >= 0; --b)
            plane.freeList.push_back(b);
    }

    if (precondition)
        fillSequential();
}

void
PageFtl::fillSequential()
{
    // The state write(0), ..., write(L - 1) leaves on an empty drive:
    // LPN k*P + p lands on plane p, block k / ppb, page k % ppb, every
    // plane taking blocks from the back of its free list (0, 1, 2, ...)
    // in the same global order. Only the per-block counters and free
    // lists are built; the map and owner entries stay implicit below
    // filled_. Stats stay zero: preconditioning is not host traffic.
    const int planes = config_.totalPlanes();
    const int blocks = config_.blocksPerPlane;
    const int ppb = config_.pagesPerBlock;

    for (int p = 0; p < planes; ++p) {
        const std::int64_t pages =
            p < logicalPages_ ? (logicalPages_ - p + planes - 1) / planes : 0;
        const int used = static_cast<int>((pages + ppb - 1) / ppb);

        // allocate() tests the free fraction against gcThreshold on
        // every write past a block's first page, and from block 1 on
        // a full block exists to collect. Free space only shrinks, so
        // the last block written past its first page decides whether
        // the write loop would have run GC (pure churn: every victim
        // is all-valid).
        int probed = used - 1;
        if (used > 0 && pages - static_cast<std::int64_t>(used - 1) * ppb < 2)
            probed = ppb >= 2 ? used - 2 : -1;
        if (probed >= 1
            && static_cast<double>(blocks - probed - 1)
                    / static_cast<double>(blocks)
                < config_.gcThreshold) {
            util::fatal("ftl: preconditioning would run GC: overprovision "
                        + std::to_string(config_.overprovision)
                        + " leaves a plane's free-block fraction under "
                          "gcThreshold "
                        + std::to_string(config_.gcThreshold)
                        + " while filling the drive");
        }

        // Block b was the (b*P + p + 1)-th activation overall.
        Plane &plane = planes_[static_cast<std::size_t>(p)];
        for (int b = 0; b < used; ++b) {
            Block &blk = plane.blocks[static_cast<std::size_t>(b)];
            blk.nextPage = static_cast<int>(std::min<std::int64_t>(
                ppb, pages - static_cast<std::int64_t>(b) * ppb));
            blk.validPages = blk.nextPage;
            blk.stampedAt = static_cast<std::uint64_t>(b) * planes + p + 1;
        }
        plane.freeList.resize(static_cast<std::size_t>(blocks - used));
        plane.activeBlock = used - 1;
        allocClock_ += static_cast<std::uint64_t>(used);
    }
    filled_ = logicalPages_;
    writeCursor_ = static_cast<std::uint64_t>(logicalPages_);
}

std::int32_t
PageFtl::mapped(std::int64_t lpn) const
{
    if (mapLive_[static_cast<std::size_t>(lpn / kMapChunk)])
        return map_[static_cast<std::size_t>(lpn)];
    if (lpn >= filled_)
        return -1;
    // LPN k*P + p -> pack({p, k / ppb, k % ppb}) = p*B*ppb + k.
    const int planes = config_.totalPlanes();
    return static_cast<std::int32_t>(lpn % planes * config_.blocksPerPlane
                                         * config_.pagesPerBlock
                                     + lpn / planes);
}

std::int32_t &
PageFtl::mapSlot(std::int64_t lpn)
{
    const std::int64_t chunk = lpn / kMapChunk;
    if (!mapLive_[static_cast<std::size_t>(chunk)]) {
        // mapped()'s closed form, stepped through the chunk.
        const int planes = config_.totalPlanes();
        std::int64_t l = chunk * kMapChunk, k = l / planes, p = l % planes;
        const std::int64_t end = std::min(l + kMapChunk, logicalPages_);
        for (; l < end; ++l) {
            map_[static_cast<std::size_t>(l)] = l < filled_
                ? static_cast<std::int32_t>(
                    p * config_.blocksPerPlane * config_.pagesPerBlock + k)
                : -1;
            if (++p == planes) {
                p = 0;
                ++k;
            }
        }
        mapLive_[static_cast<std::size_t>(chunk)] = true;
    }
    return map_[static_cast<std::size_t>(lpn)];
}

std::int32_t
PageFtl::owner(int plane, int block, int page) const
{
    if (planes_[static_cast<std::size_t>(plane)]
            .blocks[static_cast<std::size_t>(block)]
            .ownersLive)
        return owner_[static_cast<std::size_t>(pack({plane, block, page}))];
    const std::int64_t lpn =
        (static_cast<std::int64_t>(block) * config_.pagesPerBlock + page)
            * config_.totalPlanes()
        + plane;
    return lpn < filled_ ? static_cast<std::int32_t>(lpn) : -1;
}

std::int32_t *
PageFtl::ownerRow(int plane, int block)
{
    std::int32_t *row = owner_.get() + pack({plane, block, 0});
    Block &blk = planes_[static_cast<std::size_t>(plane)]
                     .blocks[static_cast<std::size_t>(block)];
    if (!blk.ownersLive) {
        // owner()'s closed form, stepped through the row.
        const int planes = config_.totalPlanes();
        std::int64_t lpn =
            static_cast<std::int64_t>(block) * config_.pagesPerBlock * planes
            + plane;
        for (int page = 0; page < config_.pagesPerBlock; ++page, lpn += planes)
            row[page] = lpn < filled_ ? static_cast<std::int32_t>(lpn) : -1;
        blk.ownersLive = true;
    }
    return row;
}

void
PageFtl::place(const PhysAddr &addr, std::int64_t lpn)
{
    ownerRow(addr.plane, addr.block)[addr.page] =
        static_cast<std::int32_t>(lpn);
    ++planes_[static_cast<std::size_t>(addr.plane)]
          .blocks[static_cast<std::size_t>(addr.block)]
          .validPages;
    mapSlot(lpn) = static_cast<std::int32_t>(pack(addr));
}

PhysAddr
PageFtl::translate(std::int64_t lpn) const
{
    util::fatalIf(lpn < 0 || lpn >= logicalPages_,
                  "ftl: logical page out of range");
    const std::int32_t packed = mapped(lpn);
    if (packed < 0)
        return {};
    return unpack(packed);
}

int
PageFtl::freeBlocks(int plane) const
{
    util::fatalIf(plane < 0 || plane >= config_.totalPlanes(),
                  "ftl: plane out of range");
    return static_cast<int>(
        planes_[static_cast<std::size_t>(plane)].freeList.size());
}

double
PageFtl::freeFraction() const
{
    std::size_t free = 0;
    for (const Plane &plane : planes_)
        free += plane.freeList.size();
    return static_cast<double>(free)
        / static_cast<double>(static_cast<std::size_t>(config_.totalPlanes())
                              * static_cast<std::size_t>(
                                  config_.blocksPerPlane));
}

int
PageFtl::blockValidPages(int plane, int block) const
{
    util::fatalIf(plane < 0 || plane >= config_.totalPlanes() || block < 0
                      || block >= config_.blocksPerPlane,
                  "ftl: block out of range");
    return planes_[static_cast<std::size_t>(plane)]
        .blocks[static_cast<std::size_t>(block)]
        .validPages;
}

bool
PageFtl::refreshCandidate(int plane, int block) const
{
    util::fatalIf(plane < 0 || plane >= config_.totalPlanes() || block < 0
                      || block >= config_.blocksPerPlane,
                  "ftl: block out of range");
    const Plane &pl = planes_[static_cast<std::size_t>(plane)];
    return block != pl.activeBlock
        && pl.blocks[static_cast<std::size_t>(block)].full(
            config_.pagesPerBlock);
}

RefreshStep
PageFtl::refreshBlock(int plane, int block, int max_pages)
{
    util::fatalIf(plane < 0 || plane >= config_.totalPlanes() || block < 0
                      || block >= config_.blocksPerPlane,
                  "ftl: block out of range");

    RefreshStep step;
    Plane &pl = planes_[static_cast<std::size_t>(plane)];
    Block &blk = pl.blocks[static_cast<std::size_t>(block)];

    if (blk.nextPage == 0 && blk.validPages == 0) {
        step.done = true; // already erased (free list / GC beat us)
        return step;
    }
    if (block == pl.activeBlock || !blk.full(config_.pagesPerBlock)) {
        step.busy = true;
        return step;
    }

    std::int32_t *const row = ownerRow(plane, block);
    for (int p = 0;
         p < config_.pagesPerBlock && step.migratedPages < max_pages; ++p) {
        if (block == pl.activeBlock)
            break; // nested GC erased and re-activated the block
        const std::int32_t lpn = row[p];
        if (lpn < 0)
            continue;
        WriteEffect sub;
        const PhysAddr addr = allocate(plane, sub);
        step.gcMigratedPages += sub.gcMigratedPages;
        step.gcErases += sub.gcErases;
        // The allocation may have run GC, which can migrate or erase
        // pages of this very block; only complete the move if the
        // page still belongs to the LPN we saw (otherwise the freshly
        // allocated page simply stays unused).
        if (row[p] != lpn)
            continue;
        row[p] = -1;
        --blk.validPages;
        place(addr, lpn);
        ++stats_.migratedPages;
        ++stats_.refreshPages;
        ++step.migratedPages;
    }

    // Nested GC may have erased and even re-activated the block; in
    // either case the refresh goal (data off, block recycled) is met.
    if (block == pl.activeBlock) {
        step.done = true;
        return step;
    }
    if (blk.nextPage == 0 && blk.validPages == 0) {
        step.done = true;
        return step;
    }
    if (blk.validPages == 0) {
        std::fill_n(row, config_.pagesPerBlock, -1);
        blk.nextPage = 0;
        blk.validPages = 0;
        pl.freeList.push_back(block);
        ++stats_.erases;
        ++stats_.refreshErases;
        step.erased = true;
        step.done = true;
        if (eraseHook_)
            eraseHook_(plane, block);
    }
    return step;
}

void
PageFtl::checkInvariants() const
{
    // Both directions walk the tables one map chunk or owner row at a
    // time and step the sequential layout's closed form alongside, the
    // way mapSlot() and ownerRow() fill them: an entry that matches it
    // needs no division to locate.
    const int planes = config_.totalPlanes();
    const int ppb = config_.pagesPerBlock;

    // Forward direction: every mapped LPN points at a page whose
    // owner record names that LPN. LPN k*P + p's sequential page is
    // {p, k / ppb, k % ppb}; (p, block, page) step with the LPN.
    PhysAddr seq{0, 0, 0};
    for (std::int64_t chunk = 0; chunk * kMapChunk < logicalPages_; ++chunk) {
        const bool live = mapLive_[static_cast<std::size_t>(chunk)];
        const std::int64_t end =
            std::min((chunk + 1) * kMapChunk, logicalPages_);
        for (std::int64_t lpn = chunk * kMapChunk; lpn < end; ++lpn) {
            const PhysAddr here = seq;
            if (++seq.plane == planes) {
                seq.plane = 0;
                if (++seq.page == ppb) {
                    seq.page = 0;
                    ++seq.block;
                }
            }
            const std::int32_t closed =
                lpn < filled_ ? static_cast<std::int32_t>(pack(here)) : -1;
            const std::int32_t packed =
                live ? map_[static_cast<std::size_t>(lpn)] : closed;
            if (packed < 0)
                continue;
            const PhysAddr a = packed == closed ? here : unpack(packed);
            util::panicIf(a.plane < 0 || a.plane >= planes || a.block < 0
                              || a.block >= config_.blocksPerPlane
                              || a.page < 0 || a.page >= ppb,
                          "ftl: mapped address out of range");
            util::panicIf(owner(a.plane, a.block, a.page) != lpn,
                          "ftl: lost LPN mapping (owner mismatch)");
        }
    }

    // Reverse direction: per-block counters and free-list purity.
    for (int pi = 0; pi < planes; ++pi) {
        const Plane &plane = planes_[static_cast<std::size_t>(pi)];
        for (int bi = 0; bi < config_.blocksPerPlane; ++bi) {
            const Block &blk = plane.blocks[static_cast<std::size_t>(bi)];
            const std::int64_t base = pack({pi, bi, 0});
            const std::int32_t *row =
                blk.ownersLive ? owner_.get() + base : nullptr;
            // owner()'s closed form, stepped through the row.
            std::int64_t closed =
                static_cast<std::int64_t>(bi) * ppb * planes + pi;
            int valid = 0;
            for (int p = 0; p < ppb; ++p, closed += planes) {
                const std::int32_t lpn = row ? row[p]
                    : closed < filled_     ? static_cast<std::int32_t>(closed)
                                           : -1;
                if (lpn < 0)
                    continue;
                ++valid;
                util::panicIf(p >= blk.nextPage,
                              "ftl: owner past the write point");
                util::panicIf(lpn >= logicalPages_,
                              "ftl: owner names an LPN past the drive");
                // The sequential LPN of this page maps here while its
                // chunk is not live (mapped()'s closed form inverts
                // owner()'s).
                const bool sequential = lpn == closed && closed < filled_
                    && !mapLive_[static_cast<std::size_t>(lpn / kMapChunk)];
                util::panicIf(!sequential && mapped(lpn) != base + p,
                              "ftl: stale owner (LPN maps elsewhere)");
            }
            util::panicIf(valid != blk.validPages,
                          "ftl: valid-page count mismatch");
        }
        for (int b : plane.freeList) {
            const Block &blk = plane.blocks[static_cast<std::size_t>(b)];
            util::panicIf(blk.nextPage != 0 || blk.validPages != 0,
                          "ftl: non-empty block on the free list");
        }
    }
}

void
PageFtl::invalidate(const PhysAddr &addr)
{
    std::int32_t &lpn = ownerRow(addr.plane, addr.block)[addr.page];
    if (lpn >= 0) {
        lpn = -1;
        --planes_[static_cast<std::size_t>(addr.plane)]
              .blocks[static_cast<std::size_t>(addr.block)]
              .validPages;
    }
}

PhysAddr
PageFtl::allocate(int plane_idx, WriteEffect &effect)
{
    auto &plane = planes_[static_cast<std::size_t>(plane_idx)];

    if (plane.activeBlock < 0
        || plane.blocks[static_cast<std::size_t>(plane.activeBlock)].full(
            config_.pagesPerBlock)) {
        if (plane.freeList.empty())
            collectGarbage(plane_idx, effect);
        util::fatalIf(plane.freeList.empty(),
                      "ftl: no free block after GC (drive overfull)");
        plane.activeBlock = plane.freeList.back();
        plane.freeList.pop_back();
        plane.blocks[static_cast<std::size_t>(plane.activeBlock)].stampedAt =
            ++allocClock_;
    } else {
        // GC ahead of demand when the plane is running low.
        const double free_frac =
            static_cast<double>(plane.freeList.size())
            / static_cast<double>(config_.blocksPerPlane);
        if (free_frac < config_.gcThreshold) {
            collectGarbage(plane_idx, effect);
            // Re-homed movers may have landed in (and filled) the
            // active block without switching it: the deeper allocate
            // only switches when it sees the block already full. Take
            // a fresh block rather than writing past the end.
            if (plane.blocks[static_cast<std::size_t>(plane.activeBlock)]
                    .full(config_.pagesPerBlock)) {
                util::fatalIf(plane.freeList.empty(),
                              "ftl: no free block after GC (drive "
                              "overfull)");
                plane.activeBlock = plane.freeList.back();
                plane.freeList.pop_back();
                plane.blocks[static_cast<std::size_t>(plane.activeBlock)]
                    .stampedAt = ++allocClock_;
            }
        }
    }

    auto &blk = plane.blocks[static_cast<std::size_t>(plane.activeBlock)];
    PhysAddr addr;
    addr.plane = plane_idx;
    addr.block = plane.activeBlock;
    addr.page = blk.nextPage++;
    return addr;
}

void
PageFtl::collectGarbage(int plane_idx, WriteEffect &effect)
{
    auto &plane = planes_[static_cast<std::size_t>(plane_idx)];

    // Victim selection through the configured policy; greedy scans
    // blocks in id order for the fewest valid pages, excluding the
    // active block and blocks that are not yet full (identical to the
    // historic hard-coded loop).
    const int victim = selectVictim(
        config_.gcPolicy, config_.blocksPerPlane, plane.activeBlock,
        config_.pagesPerBlock, allocClock_,
        [&](int b) {
            return plane.blocks[static_cast<std::size_t>(b)].full(
                config_.pagesPerBlock);
        },
        [&](int b) {
            return plane.blocks[static_cast<std::size_t>(b)].validPages;
        },
        [&](int b) {
            return plane.blocks[static_cast<std::size_t>(b)].stampedAt;
        });
    if (victim < 0)
        return;

    auto &vblk = plane.blocks[static_cast<std::size_t>(victim)];

    // Migrate valid pages into the plane's free space. Use a scratch
    // destination block taken from the free list first so migration
    // cannot recurse into GC.
    std::int32_t *const vrow = ownerRow(plane_idx, victim);
    std::vector<std::int64_t> movers;
    for (int p = 0; p < config_.pagesPerBlock; ++p) {
        if (vrow[p] >= 0)
            movers.push_back(vrow[p]);
    }

    // Erase the victim.
    std::fill_n(vrow, config_.pagesPerBlock, -1);
    vblk.nextPage = 0;
    vblk.validPages = 0;
    plane.freeList.push_back(victim);
    ++stats_.gcRuns;
    ++stats_.erases;
    ++effect.gcErases;
    effect.gcTriggered = true;
    if (eraseHook_)
        eraseHook_(plane_idx, victim);

    // Re-home the movers (within this plane).
    for (std::int64_t lpn : movers) {
        WriteEffect sub;
        const PhysAddr addr = allocate(plane_idx, sub);
        // Propagate any nested GC effects into the caller's effect.
        effect.gcMigratedPages += sub.gcMigratedPages;
        effect.gcErases += sub.gcErases;
        place(addr, lpn);
        ++stats_.migratedPages;
        ++effect.gcMigratedPages;
    }
}

WriteEffect
PageFtl::write(std::int64_t lpn)
{
    util::fatalIf(lpn < 0 || lpn >= logicalPages_,
                  "ftl: logical page out of range");

    WriteEffect effect;
    const std::int32_t old = mapSlot(lpn);
    if (old >= 0)
        invalidate(unpack(old));

    const int plane = static_cast<int>(
        writeCursor_++ % static_cast<std::uint64_t>(config_.totalPlanes()));
    const PhysAddr addr = allocate(plane, effect);
    place(addr, lpn);
    effect.target = addr;
    ++stats_.hostWrites;
    return effect;
}

std::size_t
PageFtl::footprintBytes() const
{
    std::size_t bytes = sizeof(PageFtl)
        + static_cast<std::size_t>(logicalPages_) * sizeof(std::int32_t)
        + (mapLive_.size() + 7) / 8
        + static_cast<std::size_t>(config_.physicalPages())
            * sizeof(std::int32_t);
    for (const Plane &plane : planes_) {
        bytes += plane.blocks.size() * sizeof(Block)
            + plane.freeList.size() * sizeof(int);
    }
    return bytes;
}

} // namespace flash::ssd
