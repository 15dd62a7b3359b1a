#include "ssd/ftl/fast_ftl.hh"

#include <algorithm>

#include "ssd/ftl/victim_policy.hh"

namespace flash::ssd
{

FastFtl::FastFtl(const SsdConfig &config, bool precondition)
    : config_(config), blocks_(config_)
{
    logicalPages_ = config_.logicalPages();
    const std::int64_t lbns = (logicalPages_ + config_.pagesPerBlock - 1)
        / config_.pagesPerBlock;
    const int planes = config_.totalPlanes();
    map_.assign(static_cast<std::size_t>(logicalPages_), -1);
    std::fill_n(blocks_.row(0, 0), config_.physicalPages(), -1);
    uses_.resize(static_cast<std::size_t>(planes)
                 * static_cast<std::size_t>(config_.blocksPerPlane));

    planes_.resize(static_cast<std::size_t>(planes));
    int min_spare = config_.blocksPerPlane;
    for (int pi = 0; pi < planes; ++pi) {
        Plane &pl = planes_[static_cast<std::size_t>(pi)];
        const int slots = static_cast<int>(lbns / planes)
            + (pi < static_cast<int>(lbns % planes) ? 1 : 0);
        pl.slotToBlock.assign(static_cast<std::size_t>(slots), -1);
        min_spare = std::min(min_spare, config_.blocksPerPlane - slots);
    }
    util::fatalIf(min_spare < 4,
                  "fast ftl: needs >= 4 spare blocks per plane (raise "
                  "overprovision or blocksPerPlane)");
    rwCap_ = std::max(1, std::min(4, min_spare - 3));
    for (Plane &pl : planes_)
        pl.rwBlocks.reserve(static_cast<std::size_t>(rwCap_));

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
    const std::int32_t packed = map_[static_cast<std::size_t>(lpn)];
    if (packed < 0)
        return {};
    return blocks_.unpack(packed);
}

bool
FastFtl::refreshCandidate(int plane, int block) const
{
    // Log blocks are reclaimed by merges, not refresh.
    return blocks_.full(blocks_.block(plane, block))
        && use(plane, block).role == Role::Data;
}

void
FastFtl::place(std::int64_t lpn, int plane_idx, int pbn, int pos)
{
    BlockTable::Block &blk = blocks_.at(plane_idx, pbn);
    util::fatalIf(pos < blk.nextPage || pos >= config_.pagesPerBlock,
                  "fast ftl: non-append program");
    const std::int32_t old = map_[static_cast<std::size_t>(lpn)];
    if (old >= 0)
        blocks_.invalidate(blocks_.unpack(old));
    blocks_.row(plane_idx, pbn)[pos] = static_cast<std::int32_t>(lpn);
    ++blk.validPages;
    blk.nextPage = pos + 1;
    map_[static_cast<std::size_t>(lpn)] =
        static_cast<std::int32_t>(blocks_.pack({plane_idx, pbn, pos}));
}

int
FastFtl::takeFreeBlock(int plane_idx, WriteEffect &effect)
{
    // Keep a small reserve so merges (which allocate before they
    // erase) can always make progress.
    if (blocks_.freeBlocks(plane_idx) <= 2)
        fullMerge(plane_idx, effect);
    return blocks_.take(plane_idx);
}

void
FastFtl::eraseBlock(int plane_idx, int pbn)
{
    Plane &pl = planes_[static_cast<std::size_t>(plane_idx)];
    Use &blk = use(plane_idx, pbn);
    util::panicIf(blk.role == Role::Free,
                  "fast ftl: erasing an already-free block");
    util::panicIf(blocks_.at(plane_idx, pbn).validPages != 0,
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

    blk.role = Role::Free;
    blk.lbn = -1;
    ++stats_.erases;
    blocks_.erase(plane_idx, pbn);
}

void
FastFtl::rebuildLbn(int plane_idx, std::int64_t lbn, WriteEffect &effect)
{
    Plane &pl = planes_[static_cast<std::size_t>(plane_idx)];
    const int slot = slotOf(lbn);
    const int d_old = pl.slotToBlock[static_cast<std::size_t>(slot)];
    const int nb = blocks_.take(plane_idx);
    use(plane_idx, nb) = {Role::Data, lbn};
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
        config_.gcPolicy, blocks_, plane_idx, count, -1,
        [&](int i) { return pl.rwBlocks[static_cast<std::size_t>(i)]; });
    if (vi < 0)
        return;
    const int victim = pl.rwBlocks[static_cast<std::size_t>(vi)];

    // Rebuild every logical block that still has valid pages in the
    // victim (ascending lbn for determinism), then erase it.
    std::vector<std::int64_t> lbns;
    const std::int32_t *const vrow = blocks_.row(plane_idx, victim);
    for (int p = 0; p < config_.pagesPerBlock; ++p) {
        const std::int64_t lpn = vrow[p];
        if (lpn >= 0)
            lbns.push_back(lpn / config_.pagesPerBlock);
    }
    std::sort(lbns.begin(), lbns.end());
    lbns.erase(std::unique(lbns.begin(), lbns.end()), lbns.end());
    for (const std::int64_t lbn : lbns)
        rebuildLbn(plane_idx, lbn, effect);

    util::panicIf(blocks_.at(plane_idx, victim).validPages != 0,
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
        if (!blocks_.full(blocks_.at(plane_idx, r)))
            return r;
    }
    if (static_cast<int>(pl.rwBlocks.size()) >= rwCap_)
        fullMerge(plane_idx, effect);
    const int nb = takeFreeBlock(plane_idx, effect);
    use(plane_idx, nb) = {Role::RwLog, -1};
    pl.rwBlocks.push_back(nb);
    return nb;
}

void
FastFtl::mergeSw(int plane_idx, WriteEffect &effect)
{
    Plane &pl = planes_[static_cast<std::size_t>(plane_idx)];
    const int s = pl.swBlock;
    util::panicIf(s < 0, "fast ftl: SW merge without an SW log");
    Use &sw = use(plane_idx, s);
    const std::int64_t lbn = sw.lbn;
    const int slot = slotOf(lbn);

    if (blocks_.full(blocks_.at(plane_idx, s))) {
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
        util::panicIf(blocks_.at(plane_idx, s).validPages != 0,
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
        if (d >= 0 && offset >= blocks_.at(plane, d).nextPage) {
            // In-place append: offset at or past the write point.
            place(lpn, plane, d, offset);
            return;
        }
        if (d < 0) {
            // First write (or refresh retired the data block): the
            // fresh block takes the append above on the next turn.
            dataBlockFor(lbn, effect);
            continue;
        }
        if (offset == 0) {
            // A stream restarting at offset 0 opens a new SW log
            // (merging out whoever held it).
            if (pl.swBlock >= 0)
                mergeSw(plane, effect);
            const int nb = takeFreeBlock(plane, effect);
            use(plane, nb) = {Role::SwLog, lbn};
            pl.swBlock = nb;
            place(lpn, plane, nb, 0);
            return;
        }
        if (pl.swBlock >= 0) {
            const int s = pl.swBlock;
            if (use(plane, s).lbn == lbn
                && blocks_.at(plane, s).nextPage == offset) {
                // Continues the sequential stream in the SW log.
                place(lpn, plane, s, offset);
                if (blocks_.full(blocks_.at(plane, s)))
                    mergeSw(plane, effect);
                return;
            }
        }
        // Random overwrite: append to the RW log.
        const int r = ensureRwSpace(plane, effect);
        place(lpn, plane, r, blocks_.at(plane, r).nextPage);
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
    effect.target = blocks_.unpack(map_[static_cast<std::size_t>(lpn)]);
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
            // A merge inside the allocation rebuilt this lbn.
            blocks_.giveBack(plane, nb);
            continue;
        }
        use(plane, nb) = {Role::Data, lbn};
        pl.slotToBlock[static_cast<std::size_t>(slot)] = nb;
        return nb;
    }
}

RefreshStep
FastFtl::refreshBlock(int plane, int block, int max_pages)
{
    blocks_.block(plane, block); // range check
    RefreshStep step;
    Plane &pl = planes_[static_cast<std::size_t>(plane)];
    Use &blk = use(plane, block);
    const std::int32_t *const row = blocks_.row(plane, block);

    if (blk.role == Role::Free) {
        step.done = true; // already erased (a merge beat us)
        return step;
    }
    if (blk.role == Role::Data) {
        if (!blocks_.full(blocks_.at(plane, block))) {
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
        for (int b = 0; b < config_.blocksPerPlane; ++b) {
            if (use(plane, b).role == Role::Retiring) {
                retiring_in_flight = true;
                break;
            }
        }
        if (retiring_in_flight || blocks_.freeBlocks(plane) < 2) {
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
        const std::int32_t lpn = row[p];
        if (lpn < 0)
            continue;
        WriteEffect sub;
        const int d = dataBlockFor(lbn, sub);
        step.gcMigratedPages += sub.gcMigratedPages;
        step.gcErases += sub.gcErases;
        // A merge inside the allocation may have rebuilt this lbn and
        // already moved the page; only complete the move if the page
        // still lives here.
        if (row[p] != lpn)
            continue;
        const BlockTable::Block &db = blocks_.at(plane, d);
        if (!blocks_.full(db) && p >= db.nextPage) {
            place(lpn, plane, d, p);
        } else {
            WriteEffect sub2;
            const int r = ensureRwSpace(plane, sub2);
            step.gcMigratedPages += sub2.gcMigratedPages;
            step.gcErases += sub2.gcErases;
            if (row[p] != lpn)
                continue;
            place(lpn, plane, r, blocks_.at(plane, r).nextPage);
        }
        ++stats_.migratedPages;
        ++stats_.refreshPages;
        ++step.migratedPages;
    }

    if (blocks_.at(plane, block).validPages == 0) {
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
    const int planes = config_.totalPlanes();
    const int ppb = config_.pagesPerBlock;

    // Forward direction: every mapped LPN points at a page whose
    // owner record names that LPN.
    for (std::int64_t lpn = 0; lpn < logicalPages_; ++lpn) {
        const std::int32_t packed = map_[static_cast<std::size_t>(lpn)];
        if (packed < 0)
            continue;
        const PhysAddr a = blocks_.unpack(packed);
        util::panicIf(a.plane >= planes, "ftl: mapped address out of range");
        util::panicIf(blocks_.row(a.plane, a.block)[a.page] != lpn,
                      "ftl: lost LPN mapping (owner mismatch)");
    }

    // Reverse direction: the table's audit.
    blocks_.audit(
        logicalPages_,
        [&](int plane, int block) { return blocks_.row(plane, block); },
        [&](std::int32_t lpn, const PhysAddr &a) {
            return map_[static_cast<std::size_t>(lpn)] == blocks_.pack(a);
        });

    // Roles: where each block's pages may come from, and the slot
    // map, SW log, RW ring and free list each name exactly the
    // blocks whose role says so.
    for (int pi = 0; pi < planes; ++pi) {
        const Plane &plane = planes_[static_cast<std::size_t>(pi)];
        int free_blocks = 0;
        for (int bi = 0; bi < config_.blocksPerPlane; ++bi) {
            const Use &blk = use(pi, bi);
            const std::int32_t *const row = blocks_.row(pi, bi);
            for (int p = 0; p < ppb; ++p) {
                const std::int64_t lpn = row[p];
                if (lpn < 0)
                    continue;
                const std::int64_t owner_lbn = lpn / ppb;
                if (blk.role == Role::Data || blk.role == Role::SwLog
                    || blk.role == Role::Retiring) {
                    // Block-mapped blocks hold only their own lbn's
                    // pages, at matching offsets.
                    util::panicIf(owner_lbn != blk.lbn || lpn % ppb != p,
                                  "fast ftl: misaligned page in a "
                                  "block-mapped block");
                } else {
                    util::panicIf(planeOf(owner_lbn) != pi,
                                  "fast ftl: RW log page from another "
                                  "plane");
                }
            }

            switch (blk.role) {
            case Role::Free:
                ++free_blocks;
                util::panicIf(blocks_.at(pi, bi).nextPage != 0
                                  || blocks_.at(pi, bi).validPages != 0,
                              "fast ftl: non-empty free block");
                break;
            case Role::Data:
                util::panicIf(
                    plane.slotToBlock[static_cast<std::size_t>(
                        slotOf(blk.lbn))]
                        != bi,
                    "fast ftl: orphan data block");
                break;
            case Role::SwLog:
                util::panicIf(plane.swBlock != bi,
                              "fast ftl: orphan SW log block");
                break;
            case Role::RwLog:
                util::panicIf(std::find(plane.rwBlocks.begin(),
                                        plane.rwBlocks.end(), bi)
                                  == plane.rwBlocks.end(),
                              "fast ftl: orphan RW log block");
                break;
            case Role::Retiring:
                util::panicIf(
                    plane.slotToBlock[static_cast<std::size_t>(
                        slotOf(blk.lbn))]
                        == bi,
                    "fast ftl: retiring block still slot-mapped");
                break;
            }
        }
        util::panicIf(free_blocks != blocks_.freeBlocks(pi),
                      "fast ftl: free-list size mismatch");
        for (int b : blocks_.freeList(pi)) {
            util::panicIf(use(pi, b).role != Role::Free,
                          "fast ftl: non-free block on the free list");
        }
        for (std::size_t slot = 0; slot < plane.slotToBlock.size();
             ++slot) {
            const int b = plane.slotToBlock[slot];
            if (b < 0)
                continue;
            const Use &blk = use(pi, b);
            const std::int64_t lbn =
                static_cast<std::int64_t>(slot) * planes + pi;
            util::panicIf(blk.role != Role::Data || blk.lbn != lbn,
                          "fast ftl: slot maps to a non-data block");
        }
        if (plane.swBlock >= 0) {
            util::panicIf(use(pi, plane.swBlock).role != Role::SwLog,
                          "fast ftl: swBlock is not an SW log");
        }
        for (int b : plane.rwBlocks) {
            util::panicIf(use(pi, b).role != Role::RwLog,
                          "fast ftl: rwBlocks entry is not an RW log");
        }
    }
}

std::size_t
FastFtl::footprintBytes() const
{
    std::size_t bytes = sizeof(FastFtl) + blocks_.footprintBytes()
        + map_.size() * sizeof(std::int32_t) + uses_.size() * sizeof(Use);
    for (const Plane &plane : planes_) {
        bytes += plane.slotToBlock.size() * sizeof(int)
            + static_cast<std::size_t>(rwCap_) * sizeof(int);
    }
    return bytes;
}

} // namespace flash::ssd
