/**
 * @file
 * Pluggable GC victim selection, shared by every FTL.
 *
 * A policy picks one block of a plane's BlockTable rows from a
 * candidate set given by index, so each FTL can name whatever block
 * universe it garbage-collects (whole plane for the page FTL, the RW
 * log set for FAST) without copying state. Both policies are
 * deterministic: ties break toward the lowest candidate index.
 */

#ifndef SENTINELFLASH_SSD_FTL_VICTIM_POLICY_HH
#define SENTINELFLASH_SSD_FTL_VICTIM_POLICY_HH

#include <cstdint>
#include <limits>

#include "ssd/config.hh"
#include "ssd/ftl/block_table.hh"

namespace flash::ssd
{

/**
 * Select a GC victim among `count` candidate indices; candidate i is
 * block `block_of(i)` of `plane` in `table`.
 *
 * A candidate is eligible when it is not `active` and its block is
 * full. Greedy picks the eligible candidate with the fewest valid
 * pages — byte-compatible with the historic page-FTL scan.
 * CostBenefit maximizes (age + 1) * (1 - u) / (1 + u) with u =
 * valid/pages_per_block and age = table.clock() - the block's stamp
 * (cf. FEMU's victim priority queue): old, mostly-invalid blocks
 * win, so hot blocks get time to accumulate invalidations. Ties
 * break toward the lowest index.
 *
 * Returns -1 when no candidate is eligible.
 */
template <typename BlockOf>
int
selectVictim(GcVictimPolicy policy, const BlockTable &table, int plane,
             int count, int active, const BlockOf &block_of)
{
    const double ppb = static_cast<double>(table.pagesPerBlock());
    int victim = -1;
    double best = -std::numeric_limits<double>::infinity();
    for (int i = 0; i < count; ++i) {
        if (i == active)
            continue;
        const BlockTable::Block &blk = table.at(plane, block_of(i));
        if (!table.full(blk))
            continue;
        double score = -static_cast<double>(blk.validPages);
        if (policy == GcVictimPolicy::CostBenefit) {
            const std::uint64_t now = table.clock();
            const double age = now >= blk.stampedAt
                ? static_cast<double>(now - blk.stampedAt)
                : 0.0;
            const double u = static_cast<double>(blk.validPages) / ppb;
            score = (age + 1.0) * (1.0 - u) / (1.0 + u);
        }
        if (score > best) {
            best = score;
            victim = i;
        }
    }
    return victim;
}

} // namespace flash::ssd

#endif // SENTINELFLASH_SSD_FTL_VICTIM_POLICY_HH
