#include "ssd/ftl/block_table.hh"

#include <algorithm>

namespace flash::ssd
{

namespace
{

PageLayout
validLayout(const SsdConfig &config)
{
    config.validate(); // before anything is sized from it
    return {config.totalPlanes(), config.blocksPerPlane,
            config.pagesPerBlock};
}

} // namespace

BlockTable::BlockTable(const SsdConfig &config)
    : PageLayout(validLayout(config))
{
    owners_ = std::make_unique_for_overwrite<std::int32_t[]>(
        static_cast<std::size_t>(config.physicalPages()));
    blocks_.resize(static_cast<std::size_t>(planes())
                   * static_cast<std::size_t>(blocksPerPlane()));
    free_.resize(static_cast<std::size_t>(planes()));
    for (auto &list : free_) {
        list.reserve(static_cast<std::size_t>(blocksPerPlane()));
        for (int b = blocksPerPlane() - 1; b >= 0; --b)
            list.push_back(b);
    }
}

const BlockTable::Block &
BlockTable::block(int plane, int block) const
{
    util::fatalIf(plane < 0 || plane >= planes() || block < 0
                      || block >= blocksPerPlane(),
                  "ftl: block out of range");
    return at(plane, block);
}

double
BlockTable::freeFraction() const
{
    std::size_t free = 0;
    for (const auto &list : free_)
        free += list.size();
    return static_cast<double>(free) / static_cast<double>(blocks_.size());
}

int
BlockTable::take(int plane)
{
    auto &list = free_[static_cast<std::size_t>(plane)];
    util::fatalIf(list.empty(), "ftl: no free block (drive overfull)");
    const int b = list.back();
    list.pop_back();
    at(plane, b).stampedAt = ++clock_;
    return b;
}

void
BlockTable::giveBack(int plane, int block)
{
    free_[static_cast<std::size_t>(plane)].push_back(block);
}

void
BlockTable::erase(int plane, int block)
{
    std::fill_n(row(plane, block), pagesPerBlock(), -1);
    Block &blk = at(plane, block);
    blk.nextPage = 0;
    blk.validPages = 0;
    free_[static_cast<std::size_t>(plane)].push_back(block);
    if (eraseHook_)
        eraseHook_(plane, block);
}

std::size_t
BlockTable::footprintBytes() const
{
    return blocks_.size()
        * (static_cast<std::size_t>(pagesPerBlock()) * sizeof(std::int32_t)
           + sizeof(Block) + sizeof(int))
        + free_.size() * sizeof(free_[0]);
}

} // namespace flash::ssd
