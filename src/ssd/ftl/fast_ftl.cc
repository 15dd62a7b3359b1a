#include "ssd/ftl/fast_ftl.hh"

#include <algorithm>

#include "ssd/ftl/victim_policy.hh"

namespace flash::ssd
{

FastFtl::FastFtl(const SsdConfig &config, bool precondition)
    : config_(config)
{
    config_.validate();
    logicalPages_ = config_.logicalPages();
    logicalBlocks_ = (logicalPages_ + config_.pagesPerBlock - 1)
        / config_.pagesPerBlock;
    const int planes = config_.totalPlanes();
    map_.assign(static_cast<std::size_t>(logicalPages_), -1);

    planes_.resize(static_cast<std::size_t>(planes));
    int min_spare = config_.blocksPerPlane;
    for (int pi = 0; pi < planes; ++pi) {
        Plane &pl = planes_[static_cast<std::size_t>(pi)];
        pl.blocks.resize(static_cast<std::size_t>(config_.blocksPerPlane));
        for (auto &blk : pl.blocks) {
            blk.owner.assign(static_cast<std::size_t>(config_.pagesPerBlock),
                             -1);
        }
        pl.freeList.reserve(
            static_cast<std::size_t>(config_.blocksPerPlane));
        for (int b = config_.blocksPerPlane - 1; b >= 0; --b)
            pl.freeList.push_back(b);
        const int slots = static_cast<int>(logicalBlocks_ / planes)
            + (pi < static_cast<int>(logicalBlocks_ % planes) ? 1 : 0);
        pl.slotToBlock.assign(static_cast<std::size_t>(slots), -1);
        min_spare = std::min(min_spare, config_.blocksPerPlane - slots);
    }
    util::fatalIf(min_spare < 4,
                  "fast ftl: needs >= 4 spare blocks per plane (raise "
                  "overprovision or blocksPerPlane)");
    rwCap_ = std::max(1, std::min(4, min_spare - 3));

    if (precondition) {
        // Sequential preconditioning maps the whole logical space
        // in-place (pure data blocks, no logs), then resets stats so
        // it isn't counted as host traffic.
        for (std::int64_t lpn = 0; lpn < logicalPages_; ++lpn) {
            WriteEffect effect;
            writePage(lpn, effect);
        }
        stats_ = FtlStats{};
    }
}

PhysAddr
FastFtl::translate(std::int64_t lpn) const
{
    util::fatalIf(lpn < 0 || lpn >= logicalPages_,
                  "ftl: logical page out of range");
    const std::int64_t packed = map_[static_cast<std::size_t>(lpn)];
    if (packed < 0)
        return {};
    return unpack(packed);
}

int
FastFtl::freeBlocks(int plane) const
{
    util::fatalIf(plane < 0 || plane >= config_.totalPlanes(),
                  "ftl: plane out of range");
    return static_cast<int>(
        planes_[static_cast<std::size_t>(plane)].freeList.size());
}

double
FastFtl::freeFraction() const
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
FastFtl::blockValidPages(int plane, int block) const
{
    util::fatalIf(plane < 0 || plane >= config_.totalPlanes() || block < 0
                      || block >= config_.blocksPerPlane,
                  "ftl: block out of range");
    return planes_[static_cast<std::size_t>(plane)]
        .blocks[static_cast<std::size_t>(block)]
        .validPages;
}

bool
FastFtl::refreshCandidate(int plane, int block) const
{
    util::fatalIf(plane < 0 || plane >= config_.totalPlanes() || block < 0
                      || block >= config_.blocksPerPlane,
                  "ftl: block out of range");
    const Block &blk = planes_[static_cast<std::size_t>(plane)]
                           .blocks[static_cast<std::size_t>(block)];
    // Log blocks are reclaimed by merges, not refresh.
    return blk.role == Role::Data && blk.full(config_.pagesPerBlock);
}

void
FastFtl::place(std::int64_t lpn, int plane_idx, int pbn, int pos)
{
    Block &blk = planes_[static_cast<std::size_t>(plane_idx)]
                     .blocks[static_cast<std::size_t>(pbn)];
    util::fatalIf(pos < blk.nextPage || pos >= config_.pagesPerBlock,
                  "fast ftl: non-append program");
    const std::int64_t old = map_[static_cast<std::size_t>(lpn)];
    if (old >= 0) {
        const PhysAddr oa = unpack(old);
        Block &ob = planes_[static_cast<std::size_t>(oa.plane)]
                        .blocks[static_cast<std::size_t>(oa.block)];
        if (ob.owner[static_cast<std::size_t>(oa.page)] >= 0) {
            ob.owner[static_cast<std::size_t>(oa.page)] = -1;
            --ob.validPages;
        }
    }
    blk.owner[static_cast<std::size_t>(pos)] = lpn;
    ++blk.validPages;
    blk.nextPage = pos + 1;
    PhysAddr a;
    a.plane = plane_idx;
    a.block = pbn;
    a.page = pos;
    map_[static_cast<std::size_t>(lpn)] = pack(a);
}

int
FastFtl::rawTakeFree(int plane_idx)
{
    Plane &pl = planes_[static_cast<std::size_t>(plane_idx)];
    util::fatalIf(pl.freeList.empty(),
                  "fast ftl: no free block (drive overfull)");
    const int b = pl.freeList.back();
    pl.freeList.pop_back();
    pl.blocks[static_cast<std::size_t>(b)].stampedAt = ++allocClock_;
    return b;
}

int
FastFtl::takeFreeBlock(int plane_idx, WriteEffect &effect)
{
    Plane &pl = planes_[static_cast<std::size_t>(plane_idx)];
    // Keep a small reserve so merges (which allocate before they
    // erase) can always make progress.
    if (static_cast<int>(pl.freeList.size()) <= 2)
        fullMerge(plane_idx, effect);
    return rawTakeFree(plane_idx);
}

void
FastFtl::eraseBlock(int plane_idx, int pbn)
{
    Plane &pl = planes_[static_cast<std::size_t>(plane_idx)];
    Block &blk = pl.blocks[static_cast<std::size_t>(pbn)];
    util::panicIf(blk.role == Role::Free,
                  "fast ftl: erasing an already-free block");
    util::panicIf(blk.validPages != 0,
                  "fast ftl: erasing a block with valid pages");

    switch (blk.role) {
    case Role::Data: {
        const int slot = slotOf(blk.lbn);
        if (pl.slotToBlock[static_cast<std::size_t>(slot)] == pbn)
            pl.slotToBlock[static_cast<std::size_t>(slot)] = -1;
        break;
    }
    case Role::SwLog:
        if (pl.swBlock == pbn)
            pl.swBlock = -1;
        break;
    case Role::RwLog: {
        auto it = std::find(pl.rwBlocks.begin(), pl.rwBlocks.end(), pbn);
        if (it != pl.rwBlocks.end())
            pl.rwBlocks.erase(it);
        break;
    }
    case Role::Retiring:
    case Role::Free:
        break;
    }

    blk.owner.assign(static_cast<std::size_t>(config_.pagesPerBlock), -1);
    blk.nextPage = 0;
    blk.validPages = 0;
    blk.role = Role::Free;
    blk.lbn = -1;
    pl.freeList.push_back(pbn);
    ++stats_.erases;
    if (eraseHook_)
        eraseHook_(plane_idx, pbn);
}

void
FastFtl::rebuildLbn(int plane_idx, std::int64_t lbn, WriteEffect &effect)
{
    Plane &pl = planes_[static_cast<std::size_t>(plane_idx)];
    const int slot = slotOf(lbn);
    const int d_old = pl.slotToBlock[static_cast<std::size_t>(slot)];
    const int nb = rawTakeFree(plane_idx);
    Block &nblk = pl.blocks[static_cast<std::size_t>(nb)];
    nblk.role = Role::Data;
    nblk.lbn = lbn;
    for (int p = 0; p < config_.pagesPerBlock; ++p) {
        const std::int64_t lpn =
            lbn * config_.pagesPerBlock + p;
        if (lpn >= logicalPages_)
            break;
        if (map_[static_cast<std::size_t>(lpn)] < 0)
            continue;
        place(lpn, plane_idx, nb, p);
        ++stats_.migratedPages;
        ++effect.gcMigratedPages;
    }
    pl.slotToBlock[static_cast<std::size_t>(slot)] = nb;
    if (d_old >= 0) {
        eraseBlock(plane_idx, d_old);
        ++effect.gcErases;
    }
}

void
FastFtl::fullMerge(int plane_idx, WriteEffect &effect)
{
    Plane &pl = planes_[static_cast<std::size_t>(plane_idx)];
    const int count = static_cast<int>(pl.rwBlocks.size());
    const int vi = selectVictim(
        config_.gcPolicy, count, -1, config_.pagesPerBlock, allocClock_,
        [&](int i) {
            return pl.blocks[static_cast<std::size_t>(pl.rwBlocks
                [static_cast<std::size_t>(i)])]
                .full(config_.pagesPerBlock);
        },
        [&](int i) {
            return pl.blocks[static_cast<std::size_t>(pl.rwBlocks
                [static_cast<std::size_t>(i)])]
                .validPages;
        },
        [&](int i) {
            return pl.blocks[static_cast<std::size_t>(pl.rwBlocks
                [static_cast<std::size_t>(i)])]
                .stampedAt;
        });
    if (vi < 0)
        return;
    const int victim = pl.rwBlocks[static_cast<std::size_t>(vi)];

    // Rebuild every logical block that still has valid pages in the
    // victim (ascending lbn for determinism), then erase it.
    std::vector<std::int64_t> lbns;
    const Block &vblk = pl.blocks[static_cast<std::size_t>(victim)];
    for (int p = 0; p < config_.pagesPerBlock; ++p) {
        const std::int64_t lpn = vblk.owner[static_cast<std::size_t>(p)];
        if (lpn >= 0)
            lbns.push_back(lpn / config_.pagesPerBlock);
    }
    std::sort(lbns.begin(), lbns.end());
    lbns.erase(std::unique(lbns.begin(), lbns.end()), lbns.end());
    for (const std::int64_t lbn : lbns)
        rebuildLbn(plane_idx, lbn, effect);

    util::panicIf(
        pl.blocks[static_cast<std::size_t>(victim)].validPages != 0,
        "fast ftl: full merge left valid pages in the victim");
    eraseBlock(plane_idx, victim);
    ++effect.gcErases;
    ++stats_.gcRuns;
    ++stats_.fullMerges;
    ++effect.fullMerges;
    effect.gcTriggered = true;
}

int
FastFtl::ensureRwSpace(int plane_idx, WriteEffect &effect)
{
    Plane &pl = planes_[static_cast<std::size_t>(plane_idx)];
    if (!pl.rwBlocks.empty()) {
        const int r = pl.rwBlocks.back();
        if (!pl.blocks[static_cast<std::size_t>(r)].full(
                config_.pagesPerBlock))
            return r;
    }
    if (static_cast<int>(pl.rwBlocks.size()) >= rwCap_)
        fullMerge(plane_idx, effect);
    const int nb = takeFreeBlock(plane_idx, effect);
    Block &blk = pl.blocks[static_cast<std::size_t>(nb)];
    blk.role = Role::RwLog;
    blk.lbn = -1;
    pl.rwBlocks.push_back(nb);
    return nb;
}

void
FastFtl::mergeSw(int plane_idx, WriteEffect &effect)
{
    Plane &pl = planes_[static_cast<std::size_t>(plane_idx)];
    const int s = pl.swBlock;
    util::panicIf(s < 0, "fast ftl: SW merge without an SW log");
    Block &sw = pl.blocks[static_cast<std::size_t>(s)];
    const std::int64_t lbn = sw.lbn;
    const int slot = slotOf(lbn);

    if (sw.full(config_.pagesPerBlock)) {
        // Switch merge: the fully-written SW log simply becomes the
        // data block. One erase, zero copies.
        const int d = pl.slotToBlock[static_cast<std::size_t>(slot)];
        sw.role = Role::Data;
        pl.swBlock = -1;
        pl.slotToBlock[static_cast<std::size_t>(slot)] = s;
        if (d >= 0) {
            eraseBlock(plane_idx, d);
            ++effect.gcErases;
        }
        ++stats_.switchMerges;
        ++effect.switchMerges;
    } else {
        // Partial merge: rebuild the logical block from its newest
        // pages (SW + data + RW logs) into a fresh aligned data
        // block, then retire both the old data block and the log.
        pl.swBlock = -1;
        rebuildLbn(plane_idx, lbn, effect);
        util::panicIf(sw.validPages != 0,
                      "fast ftl: partial merge left valid pages in SW");
        eraseBlock(plane_idx, s);
        ++effect.gcErases;
        ++stats_.partialMerges;
        ++effect.partialMerges;
    }
    effect.gcTriggered = true;
}

void
FastFtl::writePage(std::int64_t lpn, WriteEffect &effect)
{
    const std::int64_t lbn = lpn / config_.pagesPerBlock;
    const int offset = static_cast<int>(lpn % config_.pagesPerBlock);
    const int plane = planeOf(lbn);
    const int slot = slotOf(lbn);
    Plane &pl = planes_[static_cast<std::size_t>(plane)];

    for (;;) {
        const int d = pl.slotToBlock[static_cast<std::size_t>(slot)];
        if (d >= 0
            && offset >= pl.blocks[static_cast<std::size_t>(d)].nextPage) {
            // In-place append: offset at or past the write point.
            place(lpn, plane, d, offset);
            return;
        }
        if (d < 0) {
            // First write (or refresh retired the data block).
            const int nb = takeFreeBlock(plane, effect);
            if (pl.slotToBlock[static_cast<std::size_t>(slot)] >= 0) {
                // A merge inside the allocation rebuilt this lbn;
                // return the block and retake the decision.
                pl.freeList.push_back(nb);
                continue;
            }
            Block &blk = pl.blocks[static_cast<std::size_t>(nb)];
            blk.role = Role::Data;
            blk.lbn = lbn;
            pl.slotToBlock[static_cast<std::size_t>(slot)] = nb;
            place(lpn, plane, nb, offset);
            return;
        }
        if (offset == 0) {
            // A stream restarting at offset 0 opens a new SW log
            // (merging out whoever held it).
            if (pl.swBlock >= 0)
                mergeSw(plane, effect);
            const int nb = takeFreeBlock(plane, effect);
            Block &blk = pl.blocks[static_cast<std::size_t>(nb)];
            blk.role = Role::SwLog;
            blk.lbn = lbn;
            pl.swBlock = nb;
            place(lpn, plane, nb, 0);
            return;
        }
        if (pl.swBlock >= 0) {
            Block &sw = pl.blocks[static_cast<std::size_t>(pl.swBlock)];
            if (sw.lbn == lbn && sw.nextPage == offset) {
                // Continues the sequential stream in the SW log.
                const int s = pl.swBlock;
                place(lpn, plane, s, offset);
                if (pl.blocks[static_cast<std::size_t>(s)].full(
                        config_.pagesPerBlock))
                    mergeSw(plane, effect);
                return;
            }
        }
        // Random overwrite: append to the RW log.
        const int r = ensureRwSpace(plane, effect);
        place(lpn, plane, r,
              pl.blocks[static_cast<std::size_t>(r)].nextPage);
        return;
    }
}

WriteEffect
FastFtl::write(std::int64_t lpn)
{
    util::fatalIf(lpn < 0 || lpn >= logicalPages_,
                  "ftl: logical page out of range");
    WriteEffect effect;
    writePage(lpn, effect);
    effect.target = unpack(map_[static_cast<std::size_t>(lpn)]);
    ++stats_.hostWrites;
    return effect;
}

int
FastFtl::dataBlockFor(std::int64_t lbn, WriteEffect &effect)
{
    const int plane = planeOf(lbn);
    const int slot = slotOf(lbn);
    Plane &pl = planes_[static_cast<std::size_t>(plane)];
    for (;;) {
        const int d = pl.slotToBlock[static_cast<std::size_t>(slot)];
        if (d >= 0)
            return d;
        const int nb = takeFreeBlock(plane, effect);
        if (pl.slotToBlock[static_cast<std::size_t>(slot)] >= 0) {
            pl.freeList.push_back(nb);
            continue;
        }
        Block &blk = pl.blocks[static_cast<std::size_t>(nb)];
        blk.role = Role::Data;
        blk.lbn = lbn;
        pl.slotToBlock[static_cast<std::size_t>(slot)] = nb;
        return nb;
    }
}

RefreshStep
FastFtl::refreshBlock(int plane, int block, int max_pages)
{
    util::fatalIf(plane < 0 || plane >= config_.totalPlanes() || block < 0
                      || block >= config_.blocksPerPlane,
                  "ftl: block out of range");

    RefreshStep step;
    Plane &pl = planes_[static_cast<std::size_t>(plane)];
    Block &blk = pl.blocks[static_cast<std::size_t>(block)];

    if (blk.role == Role::Free) {
        step.done = true; // already erased (a merge beat us)
        return step;
    }
    if (blk.role == Role::Data) {
        if (!blk.full(config_.pagesPerBlock)) {
            step.busy = true;
            return step;
        }
        // A retirement pins a replacement data block (plus RW-log
        // space for interleaved host writes) until the drain
        // finishes. One retirement per plane keeps the block roles
        // within blocksPerPlane with a free block to spare, so the
        // merge path can always make progress; without the cap a
        // hot scrubber can detach every full data block at once and
        // run the plane dry. Busy here means "re-probe later".
        bool retiring_in_flight = false;
        for (const Block &b : pl.blocks) {
            if (b.role == Role::Retiring) {
                retiring_in_flight = true;
                break;
            }
        }
        if (retiring_in_flight
            || static_cast<int>(pl.freeList.size()) < 2) {
            step.busy = true;
            return step;
        }
        // Detach: new host writes land in a replacement data block;
        // this one only drains from here on.
        const int slot = slotOf(blk.lbn);
        if (pl.slotToBlock[static_cast<std::size_t>(slot)] == block)
            pl.slotToBlock[static_cast<std::size_t>(slot)] = -1;
        blk.role = Role::Retiring;
    } else if (blk.role != Role::Retiring) {
        step.busy = true; // log blocks are reclaimed by merges
        return step;
    }

    const std::int64_t lbn = blk.lbn;
    for (int p = 0;
         p < config_.pagesPerBlock && step.migratedPages < max_pages; ++p) {
        const std::int64_t lpn = blk.owner[static_cast<std::size_t>(p)];
        if (lpn < 0)
            continue;
        WriteEffect sub;
        const int d = dataBlockFor(lbn, sub);
        step.gcMigratedPages += sub.gcMigratedPages;
        step.gcErases += sub.gcErases;
        // A merge inside the allocation may have rebuilt this lbn and
        // already moved the page; only complete the move if the page
        // still lives here.
        if (blk.owner[static_cast<std::size_t>(p)] != lpn)
            continue;
        Block &db = pl.blocks[static_cast<std::size_t>(d)];
        if (!db.full(config_.pagesPerBlock) && p >= db.nextPage) {
            place(lpn, plane, d, p);
        } else {
            WriteEffect sub2;
            const int r = ensureRwSpace(plane, sub2);
            step.gcMigratedPages += sub2.gcMigratedPages;
            step.gcErases += sub2.gcErases;
            if (blk.owner[static_cast<std::size_t>(p)] != lpn)
                continue;
            place(lpn, plane, r,
                  pl.blocks[static_cast<std::size_t>(r)].nextPage);
        }
        ++stats_.migratedPages;
        ++stats_.refreshPages;
        ++step.migratedPages;
    }

    if (blk.validPages == 0) {
        eraseBlock(plane, block);
        ++stats_.refreshErases;
        step.erased = true;
        step.done = true;
    }
    return step;
}

void
FastFtl::checkInvariants() const
{
    // Forward direction: every mapped LPN points at a page whose
    // owner record names that LPN.
    for (std::int64_t lpn = 0; lpn < logicalPages_; ++lpn) {
        const std::int64_t packed = map_[static_cast<std::size_t>(lpn)];
        if (packed < 0)
            continue;
        const PhysAddr a = unpack(packed);
        util::panicIf(a.plane < 0 || a.plane >= config_.totalPlanes()
                          || a.block < 0
                          || a.block >= config_.blocksPerPlane || a.page < 0
                          || a.page >= config_.pagesPerBlock,
                      "fast ftl: mapped address out of range");
        const auto &blk = planes_[static_cast<std::size_t>(a.plane)]
                              .blocks[static_cast<std::size_t>(a.block)];
        util::panicIf(blk.owner[static_cast<std::size_t>(a.page)] != lpn,
                      "fast ftl: lost LPN mapping (owner mismatch)");
    }

    // Reverse direction: per-block counters, role bookkeeping, and
    // free-list purity.
    for (std::size_t pi = 0; pi < planes_.size(); ++pi) {
        const Plane &plane = planes_[pi];
        int free_blocks = 0;
        for (std::size_t bi = 0; bi < plane.blocks.size(); ++bi) {
            const Block &blk = plane.blocks[bi];
            int valid = 0;
            for (int p = 0; p < config_.pagesPerBlock; ++p) {
                const std::int64_t lpn =
                    blk.owner[static_cast<std::size_t>(p)];
                if (lpn < 0)
                    continue;
                ++valid;
                util::panicIf(p >= blk.nextPage,
                              "fast ftl: owner past the write point");
                PhysAddr a;
                a.plane = static_cast<int>(pi);
                a.block = static_cast<int>(bi);
                a.page = p;
                util::panicIf(map_[static_cast<std::size_t>(lpn)]
                                  != pack(a),
                              "fast ftl: stale owner (LPN maps elsewhere)");
                const std::int64_t owner_lbn =
                    lpn / config_.pagesPerBlock;
                if (blk.role == Role::Data || blk.role == Role::SwLog
                    || blk.role == Role::Retiring) {
                    // Block-mapped blocks hold only their own lbn's
                    // pages, at matching offsets.
                    util::panicIf(owner_lbn != blk.lbn
                                      || lpn % config_.pagesPerBlock != p,
                                  "fast ftl: misaligned page in a "
                                  "block-mapped block");
                } else {
                    util::panicIf(planeOf(owner_lbn)
                                      != static_cast<int>(pi),
                                  "fast ftl: RW log page from another "
                                  "plane");
                }
            }
            util::panicIf(valid != blk.validPages,
                          "fast ftl: valid-page count mismatch");

            switch (blk.role) {
            case Role::Free:
                ++free_blocks;
                util::panicIf(blk.nextPage != 0 || blk.validPages != 0,
                              "fast ftl: non-empty free block");
                break;
            case Role::Data:
                util::panicIf(
                    plane.slotToBlock[static_cast<std::size_t>(
                        slotOf(blk.lbn))]
                        != static_cast<int>(bi),
                    "fast ftl: orphan data block");
                break;
            case Role::SwLog:
                util::panicIf(plane.swBlock != static_cast<int>(bi),
                              "fast ftl: orphan SW log block");
                break;
            case Role::RwLog:
                util::panicIf(
                    std::find(plane.rwBlocks.begin(),
                              plane.rwBlocks.end(),
                              static_cast<int>(bi))
                        == plane.rwBlocks.end(),
                    "fast ftl: orphan RW log block");
                break;
            case Role::Retiring:
                util::panicIf(
                    plane.slotToBlock[static_cast<std::size_t>(
                        slotOf(blk.lbn))]
                        == static_cast<int>(bi),
                    "fast ftl: retiring block still slot-mapped");
                break;
            }
        }
        util::panicIf(free_blocks
                          != static_cast<int>(plane.freeList.size()),
                      "fast ftl: free-list size mismatch");
        for (int b : plane.freeList) {
            util::panicIf(plane.blocks[static_cast<std::size_t>(b)].role
                              != Role::Free,
                          "fast ftl: non-free block on the free list");
        }
        for (std::size_t slot = 0; slot < plane.slotToBlock.size();
             ++slot) {
            const int b = plane.slotToBlock[slot];
            if (b < 0)
                continue;
            const Block &blk = plane.blocks[static_cast<std::size_t>(b)];
            const std::int64_t lbn =
                static_cast<std::int64_t>(slot) * config_.totalPlanes()
                + static_cast<std::int64_t>(pi);
            util::panicIf(blk.role != Role::Data || blk.lbn != lbn,
                          "fast ftl: slot maps to a non-data block");
        }
        if (plane.swBlock >= 0) {
            util::panicIf(
                plane.blocks[static_cast<std::size_t>(plane.swBlock)].role
                    != Role::SwLog,
                "fast ftl: swBlock is not an SW log");
        }
        for (int b : plane.rwBlocks) {
            util::panicIf(plane.blocks[static_cast<std::size_t>(b)].role
                              != Role::RwLog,
                          "fast ftl: rwBlocks entry is not an RW log");
        }
    }
}

std::size_t
FastFtl::footprintBytes() const
{
    std::size_t bytes =
        sizeof(FastFtl) + map_.size() * sizeof(std::int64_t);
    for (const Plane &plane : planes_) {
        bytes += plane.blocks.size() * sizeof(Block)
            + plane.freeList.size() * sizeof(int)
            + plane.slotToBlock.size() * sizeof(int)
            + plane.rwBlocks.size() * sizeof(int);
        for (const Block &block : plane.blocks)
            bytes += block.owner.size() * sizeof(std::int64_t);
    }
    return bytes;
}

} // namespace flash::ssd
