#include "core/voltage_cache.hh"

namespace flash::core
{

std::optional<int>
VoltageCache::lookup(int block, const BlockEpoch &epoch)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(block);
    if (it == entries_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    if (!(it->second.epoch == epoch)) {
        // The block aged since the offset was inferred; the stored
        // offset described a distribution that no longer exists.
        entries_.erase(it);
        ++stats_.stales;
        return std::nullopt;
    }
    ++stats_.hits;
    return it->second.sentinelOffset;
}

void
VoltageCache::store(int block, const BlockEpoch &epoch, int sentinel_offset)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[block] = Entry{epoch, sentinel_offset};
    ++stats_.stores;
}

void
VoltageCache::rewarm(int block, const BlockEpoch &epoch, int sentinel_offset)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[block] = Entry{epoch, sentinel_offset};
    ++stats_.rewarms;
}

std::size_t
VoltageCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

VoltageCache::Stats
VoltageCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
VoltageCache::exportMetrics(util::MetricsRegistry &metrics) const
{
    const Stats s = stats();
    metrics.add("cache.hit", s.hits);
    metrics.add("cache.miss", s.misses);
    metrics.add("cache.rewarm", s.rewarms);
    metrics.add("cache.stale", s.stales);
    metrics.add("cache.store", s.stores);
}

} // namespace flash::core
