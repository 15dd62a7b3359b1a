#include "mon/timeseries.hh"

#include <utility>

#include "util/logging.hh"

namespace flash::mon
{

void
ReadTotals::merge(const ReadTotals &other)
{
    windows += other.windows;
    reads.merge(other.reads);
    retries.merge(other.retries);
    senses.merge(other.senses);
    assists.merge(other.assists);
    exact = exact && other.exact;
}

std::uint64_t
ReadTotals::readsInt() const
{
    return static_cast<std::uint64_t>(reads.value());
}

std::uint64_t
ReadTotals::retriesInt() const
{
    return static_cast<std::uint64_t>(retries.value());
}

std::uint64_t
ReadTotals::sensesInt() const
{
    return static_cast<std::uint64_t>(senses.value());
}

std::uint64_t
ReadTotals::assistsInt() const
{
    return static_cast<std::uint64_t>(assists.value());
}

DeviceSeries::DeviceSeries(int device, std::size_t capacity)
    : device_(device), capacity_(capacity)
{
    util::fatalIf(capacity_ < 2, "DeviceSeries: capacity < 2");
}

void
DeviceSeries::addSsd(const HealthRecord &rec)
{
    if (cohort_.empty())
        cohort_ = cohortOfContext(rec.context);

    WindowSample s;
    s.window = rec.window;
    s.tUs = rec.tUs;
    s.finalSnapshot = rec.finalSnapshot;
    rec.json.get("reads", s.reads);
    s.exactDeltas = rec.json.get("retries", s.retries)
        & rec.json.get("senses", s.senses)
        & rec.json.get("assists", s.assists);
    rec.json.get("retries_per_read", s.retriesPerRead);
    rec.json.get("sense_ops_per_read", s.sensesPerRead);
    rec.json.get("assist_reads_per_read", s.assistsPerRead);
    if (!s.exactDeltas) {
        // Schema-1 stream: reconstruct approximate deltas from the
        // rates; totals are then flagged non-exact.
        s.retries = s.retriesPerRead * s.reads;
        s.senses = s.sensesPerRead * s.reads;
        s.assists = s.assistsPerRead * s.reads;
    }
    s.haveLatency = rec.json.get("read_p99_us", s.readP99Us);
    s.haveScrub = rec.json.get("scrub_warm_fraction",
                              s.warmFraction);
    rec.json.get("scrub_refresh_queue", s.refreshQueue);
    rec.json.get("scrub_warm_read_rate", s.warmReadRate);
    s.haveModel =
        rec.json.get("model_mean_confidence", s.modelConfidence);
    rec.json.get("model_confident_fraction",
                s.modelConfidentFraction);

    if (ring_.size() == capacity_)
        ring_.erase(ring_.begin());
    ring_.push_back(std::move(s));

    ++totals_.windows;
    totals_.reads.add(ring_.back().reads);
    totals_.retries.add(ring_.back().retries);
    totals_.senses.add(ring_.back().senses);
    totals_.assists.add(ring_.back().assists);
    totals_.exact = totals_.exact && ring_.back().exactDeltas;
}

void
DeviceSeries::addChip(const HealthRecord &rec)
{
    if (cohort_.empty())
        cohort_ = cohortOfContext(rec.context);
    double residual = 0.0;
    if (rec.json.get("model_residual", residual)) {
        haveResidual_ = true;
        lastResidual_ = residual;
    }
}

const WindowSample *
DeviceSeries::latest() const
{
    return ring_.empty() ? nullptr : &ring_.back();
}

const WindowSample *
DeviceSeries::lookback(std::size_t back) const
{
    if (back >= ring_.size())
        return nullptr;
    return &ring_[ring_.size() - 1 - back];
}

FleetSeries::FleetSeries(std::size_t ringCapacity)
    : ringCapacity_(ringCapacity)
{
}

const DeviceSeries *
FleetSeries::add(const HealthRecord &rec)
{
    auto it = devices_.find(rec.device);
    if (it == devices_.end()) {
        it = devices_
                 .emplace(rec.device,
                          DeviceSeries(rec.device, ringCapacity_))
                 .first;
    }
    if (rec.kind == "ssd") {
        it->second.addSsd(rec);
        return &it->second;
    }
    if (rec.kind == "chip")
        it->second.addChip(rec);
    return nullptr;
}

ReadTotals
FleetSeries::rollup() const
{
    // ExactSum merges are order-invariant, so this id-order loop
    // produces the same bits as any other permutation — determinism
    // by construction, not by iteration-order luck.
    ReadTotals out;
    for (const auto &[id, dev] : devices_) {
        (void)id;
        out.merge(dev.totals());
    }
    return out;
}

std::string
cohortOfContext(const std::string &context)
{
    if (context.rfind("fleet.", 0) == 0)
        return context.substr(6);
    return context.empty() ? "n/a" : context;
}

std::string
reconcileReadTotals(const ReadTotals &totals,
                    const std::map<std::string, std::uint64_t> &counters)
{
    if (!totals.exact) {
        return "health stream lacks raw window deltas (schema 1): "
               "exact reconciliation impossible";
    }
    const auto check = [&](const char *name,
                           std::uint64_t have) -> std::string {
        const auto it = counters.find(name);
        if (it == counters.end())
            return std::string("fleet rollup lacks counter ") + name;
        if (it->second != have) {
            return std::string(name) + " mismatch: health windows sum to "
                + std::to_string(have) + ", fleet rollup holds "
                + std::to_string(it->second);
        }
        return "";
    };
    std::string err;
    if (!(err = check("fleet.ssd.read.page_ops", totals.readsInt()))
             .empty())
        return err;
    if (!(err = check("fleet.ssd.read.attempts",
                      totals.readsInt() + totals.retriesInt()))
             .empty())
        return err;
    if (!(err = check("fleet.ssd.read.sense_ops", totals.sensesInt()))
             .empty())
        return err;
    if (!(err = check("fleet.ssd.read.assist_reads",
                      totals.assistsInt()))
             .empty())
        return err;
    return "";
}

} // namespace flash::mon
