#include "ssd/ftl/page_ftl.hh"

#include <algorithm>
#include <string>

#include "ssd/ftl/victim_policy.hh"

namespace flash::ssd
{

PageFtl::PageFtl(const SsdConfig &config, bool precondition)
    : config_(config), blocks_(config_),
      planes_(static_cast<std::uint32_t>(config_.totalPlanes())),
      gcFreeBlocks_(gcFreeBlocks(config_.blocksPerPlane, config_.gcThreshold))
{
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
    ownersLive_.assign(static_cast<std::size_t>(config_.totalPlanes())
                           * static_cast<std::size_t>(config_.blocksPerPlane),
                       0);
    active_.assign(static_cast<std::size_t>(config_.totalPlanes()), -1);

    if (precondition)
        fillSequential();
}

int
PageFtl::gcFreeBlocks(int blocks_per_plane, double gc_threshold)
{
    int count = 0;
    for (int n = 0; n <= blocks_per_plane; ++n) {
        if (static_cast<double>(n) / static_cast<double>(blocks_per_plane)
            < gc_threshold)
            ++count;
    }
    return count;
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
    // The write loop runs no GC: free space runs out only once the
    // plane's share is written, and every full block is all-valid,
    // which allocate() never collects ahead of demand.
    const int planes = config_.totalPlanes();
    const int ppb = config_.pagesPerBlock;

    // Each block is taken at its first LPN, k*P + p with k % ppb == 0,
    // and holds the plane's next min(ppb, ceil((L - lpn) / P)) pages.
    for (std::int64_t k = 0; k * planes < logicalPages_; k += ppb) {
        for (int p = 0; p < planes && k * planes + p < logicalPages_; ++p) {
            const int b = blocks_.take(p);
            BlockTable::Block &blk = blocks_.at(p, b);
            blk.nextPage = static_cast<int>(std::min<std::int64_t>(
                ppb, (logicalPages_ - k * planes - p + planes - 1) / planes));
            blk.validPages = blk.nextPage;
            active_[static_cast<std::size_t>(p)] = b;
        }
    }
    filled_ = logicalPages_;
    planeCursor_ = static_cast<int>(
        planes_.mod(static_cast<std::uint32_t>(logicalPages_)));
}

std::int32_t
PageFtl::mapped(std::int64_t lpn) const
{
    if (mapLive_[static_cast<std::size_t>(lpn / kMapChunk)])
        return map_[static_cast<std::size_t>(lpn)];
    if (lpn >= filled_)
        return -1;
    // LPN k*P + p -> pack({p, k / ppb, k % ppb}) = p*B*ppb + k.
    const auto l = static_cast<std::uint32_t>(lpn);
    const std::uint32_t k = planes_.div(l);
    return static_cast<std::int32_t>(
        (l - k * planes_.divisor()) * config_.blocksPerPlane
            * config_.pagesPerBlock
        + k);
}

std::int32_t &
PageFtl::mapSlot(std::int64_t lpn)
{
    const std::int64_t chunk = lpn / kMapChunk;
    if (!mapLive_[static_cast<std::size_t>(chunk)]) {
        // mapped()'s closed form, stepped through the chunk.
        const int planes = config_.totalPlanes();
        std::int64_t l = chunk * kMapChunk;
        std::int64_t k = planes_.div(static_cast<std::uint32_t>(l));
        std::int64_t p = l - k * planes;
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
    if (ownersLive_[blocks_.index(plane, block)])
        return blocks_.row(plane, block)[page];
    const std::int64_t lpn =
        (static_cast<std::int64_t>(block) * config_.pagesPerBlock + page)
            * config_.totalPlanes()
        + plane;
    return lpn < filled_ ? static_cast<std::int32_t>(lpn) : -1;
}

std::int32_t *
PageFtl::ownerRow(int plane, int block)
{
    std::int32_t *row = blocks_.row(plane, block);
    const std::size_t i = blocks_.index(plane, block);
    if (!ownersLive_[i]) {
        // owner()'s closed form, stepped through the row.
        const int planes = config_.totalPlanes();
        std::int64_t lpn =
            static_cast<std::int64_t>(block) * config_.pagesPerBlock * planes
            + plane;
        for (int page = 0; page < config_.pagesPerBlock; ++page, lpn += planes)
            row[page] = lpn < filled_ ? static_cast<std::int32_t>(lpn) : -1;
        ownersLive_[i] = 1;
    }
    return row;
}

void
PageFtl::place(const PhysAddr &addr, std::int64_t lpn)
{
    ownerRow(addr.plane, addr.block)[addr.page] =
        static_cast<std::int32_t>(lpn);
    ++blocks_.at(addr.plane, addr.block).validPages;
    mapSlot(lpn) = static_cast<std::int32_t>(blocks_.pack(addr));
}

PhysAddr
PageFtl::translate(std::int64_t lpn) const
{
    util::fatalIf(lpn < 0 || lpn >= logicalPages_,
                  "ftl: logical page out of range");
    const std::int32_t packed = mapped(lpn);
    if (packed < 0)
        return {};
    return blocks_.unpack(packed);
}

bool
PageFtl::refreshCandidate(int plane, int block) const
{
    return blocks_.full(blocks_.block(plane, block))
        && block != active_[static_cast<std::size_t>(plane)];
}

RefreshStep
PageFtl::refreshBlock(int plane, int block, int max_pages)
{
    blocks_.block(plane, block); // range check
    RefreshStep step;
    BlockTable::Block &blk = blocks_.at(plane, block);
    const int &active = active_[static_cast<std::size_t>(plane)];

    if (blk.nextPage == 0 && blk.validPages == 0) {
        step.done = true; // already erased (free list / GC beat us)
        return step;
    }
    if (block == active || !blocks_.full(blk)) {
        step.busy = true;
        return step;
    }

    std::int32_t *const row = ownerRow(plane, block);
    for (int p = 0;
         p < config_.pagesPerBlock && step.migratedPages < max_pages; ++p) {
        if (block == active)
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
        blocks_.invalidate({plane, block, p});
        place(addr, lpn);
        ++stats_.migratedPages;
        ++stats_.refreshPages;
        ++step.migratedPages;
    }

    // Nested GC may have erased and even re-activated the block; in
    // either case the refresh goal (data off, block recycled) is met.
    if (block == active) {
        step.done = true;
        return step;
    }
    if (blk.nextPage == 0 && blk.validPages == 0) {
        step.done = true;
        return step;
    }
    if (blk.validPages == 0) {
        ++stats_.erases;
        ++stats_.refreshErases;
        step.erased = true;
        step.done = true;
        blocks_.erase(plane, block);
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
            const std::int32_t closed = lpn < filled_
                ? static_cast<std::int32_t>(blocks_.pack(here))
                : -1;
            const std::int32_t packed =
                live ? map_[static_cast<std::size_t>(lpn)] : closed;
            if (packed < 0)
                continue;
            const PhysAddr a = packed == closed ? here : blocks_.unpack(packed);
            util::panicIf(a.plane >= planes,
                          "ftl: mapped address out of range");
            util::panicIf(owner(a.plane, a.block, a.page) != lpn,
                          "ftl: lost LPN mapping (owner mismatch)");
        }
    }

    // Reverse direction: the table's audit, over owner() rows (a row
    // that is not live reads as its closed form). The sequential LPN
    // of a page maps back to it while its chunk is not live either
    // (mapped()'s closed form inverts owner()'s).
    std::vector<std::int32_t> closed_row(static_cast<std::size_t>(ppb));
    blocks_.audit(
        logicalPages_,
        [&](int plane, int block) -> const std::int32_t * {
            if (ownersLive_[blocks_.index(plane, block)])
                return blocks_.row(plane, block);
            std::int64_t lpn =
                static_cast<std::int64_t>(block) * ppb * planes + plane;
            for (auto &entry : closed_row) {
                entry = lpn < filled_ ? static_cast<std::int32_t>(lpn) : -1;
                lpn += planes;
            }
            return closed_row.data();
        },
        [&](std::int32_t lpn, const PhysAddr &a) {
            const std::int64_t closed =
                (static_cast<std::int64_t>(a.block) * ppb + a.page) * planes
                + a.plane;
            const bool sequential = lpn == closed && closed < filled_
                && !mapLive_[static_cast<std::size_t>(lpn / kMapChunk)];
            return sequential || mapped(lpn) == blocks_.pack(a);
        });
}

bool
PageFtl::activeFull(int plane_idx) const
{
    const int active = active_[static_cast<std::size_t>(plane_idx)];
    return active < 0 || blocks_.full(blocks_.at(plane_idx, active));
}

bool
PageFtl::canTake(int plane_idx) const
{
    if (!activeFull(plane_idx) || blocks_.freeBlocks(plane_idx) > 0)
        return true;
    // Demand GC frees a page if its victim holds an invalid one. An
    // all-valid victim is re-homed into its own erased block, and then
    // only the GC ahead of demand that its second page runs can free
    // one: on the old active block, once that is a candidate.
    const int ppb = config_.pagesPerBlock;
    const int victim = policyVictim(plane_idx);
    if (victim < 0)
        return false;
    if (blocks_.at(plane_idx, victim).validPages < ppb)
        return true;
    const int active = active_[static_cast<std::size_t>(plane_idx)];
    return gcFreeBlocks_ > 0 && ppb > 1 && active >= 0
        && blocks_.at(plane_idx, active).validPages < ppb;
}

int
PageFtl::policyVictim(int plane_idx) const
{
    // Greedy scans blocks in id order for the fewest valid pages,
    // excluding the active block and blocks that are not yet full
    // (identical to the historic hard-coded loop).
    return selectVictim(config_.gcPolicy, blocks_, plane_idx,
                        config_.blocksPerPlane,
                        active_[static_cast<std::size_t>(plane_idx)],
                        [](int b) { return b; });
}

PhysAddr
PageFtl::allocate(int plane_idx, WriteEffect &effect)
{
    int &active = active_[static_cast<std::size_t>(plane_idx)];

    if (activeFull(plane_idx)) {
        // A demand GC re-homes the victim's valid pages through
        // allocate(), which takes the erased victim as the active
        // block; the write goes there too unless they filled it.
        if (blocks_.freeBlocks(plane_idx) == 0)
            collectGarbage(plane_idx, effect, true);
        if (activeFull(plane_idx))
            active = blocks_.take(plane_idx);
    } else {
        // GC ahead of demand when the plane is running low.
        if (blocks_.freeBlocks(plane_idx) < gcFreeBlocks_) {
            collectGarbage(plane_idx, effect, false);
            // Re-homed movers may have landed in (and filled) the
            // active block without switching it: the deeper allocate
            // only switches when it sees the block already full. Take
            // a fresh block rather than writing past the end.
            if (activeFull(plane_idx))
                active = blocks_.take(plane_idx);
        }
    }

    PhysAddr addr;
    addr.plane = plane_idx;
    addr.block = active;
    addr.page = blocks_.at(plane_idx, active).nextPage++;
    return addr;
}

void
PageFtl::collectGarbage(int plane_idx, WriteEffect &effect, bool on_demand)
{
    const int victim = policyVictim(plane_idx);
    if (victim < 0)
        return;
    // Ahead of demand, an all-valid victim would be copied whole to
    // reclaim nothing, and again on every later allocation.
    if (!on_demand
        && blocks_.at(plane_idx, victim).validPages == config_.pagesPerBlock)
        return;

    // Migrate valid pages into the plane's free space. Use a scratch
    // destination block taken from the free list first so migration
    // cannot recurse into GC.
    const std::int32_t *const vrow = ownerRow(plane_idx, victim);
    std::vector<std::int64_t> movers;
    for (int p = 0; p < config_.pagesPerBlock; ++p) {
        if (vrow[p] >= 0)
            movers.push_back(vrow[p]);
    }

    // Erase the victim.
    ++stats_.gcRuns;
    ++stats_.erases;
    ++effect.gcErases;
    effect.gcTriggered = true;
    blocks_.erase(plane_idx, victim);

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
    if (old >= 0) {
        const PhysAddr a = blocks_.unpack(old);
        ownerRow(a.plane, a.block); // live before it changes
        blocks_.invalidate(a);
    }

    // Round-robin by write count. A write whose plane cannot take it
    // goes to the next plane that can; with none, allocate() on the
    // last one tried is fatal.
    const int planes = blocks_.planes();
    int plane = planeCursor_;
    if (++planeCursor_ == planes)
        planeCursor_ = 0;
    for (int tried = 1; tried < planes && !canTake(plane); ++tried)
        plane = plane + 1 < planes ? plane + 1 : 0;
    const PhysAddr addr = allocate(plane, effect);
    place(addr, lpn);
    effect.target = addr;
    ++stats_.hostWrites;
    return effect;
}

std::size_t
PageFtl::footprintBytes() const
{
    return sizeof(PageFtl) + blocks_.footprintBytes()
        + static_cast<std::size_t>(logicalPages_) * sizeof(std::int32_t)
        + (mapLive_.size() + 7) / 8 + ownersLive_.size()
        + active_.size() * sizeof(int);
}

} // namespace flash::ssd
