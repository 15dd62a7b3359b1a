#include "nandsim/chip.hh"

#include <cmath>
#include <list>
#include <mutex>
#include <unordered_map>

#include "nandsim/snapshot.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace flash::nand
{

namespace
{

constexpr std::uint64_t kSaltCellState = 0x63656c6c53740001ULL;

/** 0 K in degrees Celsius: VoltageModel::arrheniusFactor's pole. */
constexpr double kAbsoluteZeroC = -273.15;

} // namespace

/**
 * LRU memo of sensed snapshots, bounded by Chip::kSenseMemoBytes of
 * WordlineSnapshot::bytes(). One mutex guards it; senses run outside
 * the lock.
 */
class Chip::SenseMemo
{
  public:
    struct Key
    {
        int block, wl, colBegin, colEnd;
        std::uint64_t readSeq, generation;

        bool operator==(const Key &) const = default;
    };

    /** The memoized snapshot of @p key (nullptr on a miss). */
    std::shared_ptr<const WordlineSnapshot>
    find(const Key &key)
    {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto it = index_.find(key);
        if (it == index_.end())
            return nullptr;
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->snap;
    }

    /**
     * Memoize @p snap under @p key, evicting least recently used
     * entries past the bound; returns the memo's snapshot of the key
     * (an equal one another thread inserted first wins).
     */
    std::shared_ptr<const WordlineSnapshot>
    insert(const Key &key, std::shared_ptr<const WordlineSnapshot> snap)
    {
        const std::lock_guard<std::mutex> lock(mu_);
        if (const auto it = index_.find(key); it != index_.end())
            return it->second->snap;
        const std::size_t bytes = snap->bytes();
        lru_.push_front(Entry{key, snap, bytes});
        index_.emplace(key, lru_.begin());
        bytes_ += bytes;
        while (bytes_ > kSenseMemoBytes)
            erase(std::prev(lru_.end()));
        return snap;
    }

    /** Drop every entry. */
    void
    clear()
    {
        const std::lock_guard<std::mutex> lock(mu_);
        lru_.clear();
        index_.clear();
        bytes_ = 0;
    }

    /** Drop every entry of @p block. */
    void
    dropBlock(int block)
    {
        const std::lock_guard<std::mutex> lock(mu_);
        for (auto it = lru_.begin(); it != lru_.end();)
            it = it->key.block == block ? erase(it) : std::next(it);
    }

    std::size_t
    bytes() const
    {
        const std::lock_guard<std::mutex> lock(mu_);
        return bytes_;
    }

  private:
    struct Entry
    {
        Key key;
        std::shared_ptr<const WordlineSnapshot> snap;
        std::size_t bytes;
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            return static_cast<std::size_t>(util::hashWords(
                {static_cast<std::uint64_t>(k.block),
                 static_cast<std::uint64_t>(k.wl),
                 static_cast<std::uint64_t>(k.colBegin),
                 static_cast<std::uint64_t>(k.colEnd), k.readSeq,
                 k.generation}));
        }
    };

    using Iter = std::list<Entry>::iterator;

    Iter
    erase(Iter it)
    {
        bytes_ -= it->bytes;
        index_.erase(it->key);
        return lru_.erase(it);
    }

    mutable std::mutex mu_;
    std::list<Entry> lru_; ///< most recently used first
    std::unordered_map<Key, Iter, KeyHash> index_;
    std::size_t bytes_ = 0;
};

Chip::Chip(const ChipGeometry &geometry, const VoltageModelParams &params,
           std::uint64_t seed)
    : geom_(geometry),
      model_(geometry.cellType, params),
      code_(geometry.cellType),
      seed_(seed), memo_(std::make_unique<SenseMemo>())
{
    geom_.validate();
    ages_.resize(static_cast<std::size_t>(geom_.blocks));
    generation_.resize(static_cast<std::size_t>(geom_.blocks));
    content_.resize(static_cast<std::size_t>(geom_.blocks));
    for (int b = 0; b < geom_.blocks; ++b) {
        auto &blk = content_[static_cast<std::size_t>(b)];
        blk.resize(static_cast<std::size_t>(geom_.wordlinesPerBlock()));
        for (int w = 0; w < geom_.wordlinesPerBlock(); ++w) {
            blk[static_cast<std::size_t>(w)].dataSeed = util::hashWords(
                {seed_, kSaltCellState, static_cast<std::uint64_t>(b),
                 static_cast<std::uint64_t>(w)});
        }
    }
}

Chip::~Chip() = default;

Chip::Chip(Chip &&other) noexcept
    : geom_(std::move(other.geom_)), model_(std::move(other.model_)),
      code_(std::move(other.code_)), seed_(other.seed_),
      ages_(std::move(other.ages_)), content_(std::move(other.content_)),
      generation_(std::move(other.generation_)),
      memo_(std::move(other.memo_))
{
    // A memoized snapshot points at the Gray code of the chip that
    // sensed it, which was other's.
    memo_->clear();
}

void
Chip::checkAddress(int block, int wl) const
{
    util::fatalIf(block < 0 || block >= geom_.blocks,
                  "chip: block out of range");
    util::fatalIf(wl < 0 || wl >= geom_.wordlinesPerBlock(),
                  "chip: wordline out of range");
}

void
Chip::touch(int block)
{
    ++generation_[static_cast<std::size_t>(block)];
    memo_->dropBlock(block);
}

void
Chip::setPeCycles(int block, std::uint32_t pe)
{
    checkAddress(block, 0);
    touch(block);
    ages_[static_cast<std::size_t>(block)].peCycles = pe;
}

void
Chip::age(int block, double hours, double tempC)
{
    checkAddress(block, 0);
    util::fatalIf(!std::isfinite(hours) || hours < 0.0,
                  "chip: retention hours must be finite and >= 0");
    util::fatalIf(!std::isfinite(tempC) || tempC <= kAbsoluteZeroC,
                  "chip: retention temperature must be finite and above "
                  "absolute zero");
    auto &a = ages_[static_cast<std::size_t>(block)];
    const double eff = hours * model_.arrheniusFactor(tempC);
    const double total = a.effRetentionHours + eff;
    const double temp = total > 0.0
        ? (a.retentionTempC * a.effRetentionHours + tempC * eff) / total
        : a.retentionTempC;
    util::fatalIf(!std::isfinite(total) || !std::isfinite(temp),
                  "chip: retention overflows a double");
    touch(block);
    a.retentionTempC = temp;
    a.effRetentionHours = total;
}

void
Chip::refresh(int block)
{
    checkAddress(block, 0);
    touch(block);
    auto &a = ages_[static_cast<std::size_t>(block)];
    a.effRetentionHours = 0.0;
    a.retentionTempC = 25.0;
    a.readCount = 0;
}

void
Chip::recordReads(int block, std::uint64_t n)
{
    checkAddress(block, 0);
    touch(block);
    ages_[static_cast<std::size_t>(block)].readCount += n;
}

const BlockAge &
Chip::blockAge(int block) const
{
    checkAddress(block, 0);
    return ages_[static_cast<std::size_t>(block)];
}

void
Chip::setBlockAge(int block, const BlockAge &age)
{
    checkAddress(block, 0);
    touch(block);
    ages_[static_cast<std::size_t>(block)] = age;
}

void
Chip::programWordline(int block, int wl, WordlineContent content)
{
    checkAddress(block, wl);
    if (!content.explicitStates.empty()) {
        util::fatalIf(static_cast<int>(content.explicitStates.size())
                          != geom_.bitlines(),
                      "chip: explicit states size mismatch");
        for (std::uint8_t s : content.explicitStates) {
            util::fatalIf(s >= geom_.states(),
                          "chip: explicit state out of range");
        }
    }
    if (content.sentinels) {
        const auto &o = *content.sentinels;
        util::fatalIf(o.start < 0 || o.count < 0
                          || o.start + o.count > geom_.bitlines(),
                      "chip: sentinel overlay out of range");
        util::fatalIf(o.lowState >= geom_.states()
                          || o.highState >= geom_.states(),
                      "chip: sentinel state out of range");
    }
    touch(block);
    content_[static_cast<std::size_t>(block)][static_cast<std::size_t>(wl)] =
        std::move(content);
}

void
Chip::programBlock(int block, std::uint64_t data_seed,
                   const std::optional<SentinelOverlay> &overlay)
{
    checkAddress(block, 0);
    for (int w = 0; w < geom_.wordlinesPerBlock(); ++w) {
        WordlineContent c;
        c.dataSeed = util::hashWords({data_seed,
                                      static_cast<std::uint64_t>(block),
                                      static_cast<std::uint64_t>(w)});
        c.sentinels = overlay;
        programWordline(block, w, std::move(c));
    }
}

const WordlineContent &
Chip::content(int block, int wl) const
{
    checkAddress(block, wl);
    return content_[static_cast<std::size_t>(block)]
                   [static_cast<std::size_t>(wl)];
}

namespace
{

/** State of a cell given its wordline's content descriptor. */
inline std::uint8_t
stateOf(const WordlineContent &c, int col, int states)
{
    if (c.sentinels && c.sentinels->contains(col))
        return c.sentinels->stateOf(col - c.sentinels->start);
    if (!c.explicitStates.empty())
        return c.explicitStates[static_cast<std::size_t>(col)];
    const std::uint64_t h =
        util::fastHash(c.dataSeed, static_cast<std::uint64_t>(col));
    return static_cast<std::uint8_t>(h % static_cast<unsigned>(states));
}

} // namespace

std::uint8_t
Chip::trueState(int block, int wl, int col) const
{
    const auto &c = content(block, wl);
    util::fatalIf(col < 0 || col >= geom_.bitlines(),
                  "chip: column out of range");
    return stateOf(c, col, geom_.states());
}

WordlineContext
Chip::wordlineContext(int block, int wl) const
{
    checkAddress(block, wl);
    return wordlineContext(block, wl, ages_[static_cast<std::size_t>(block)]);
}

WordlineContext
Chip::wordlineContext(int block, int wl, const BlockAge &age) const
{
    checkAddress(block, wl);
    const int layer = geom_.layerOf(wl);
    const double ret_f = model_.layerRetentionFactor(seed_, block, layer)
        * model_.wordlineFactor(seed_, block, wl);
    const double sig_f = model_.layerSigmaFactor(seed_, block, layer);

    WordlineContext ctx;
    const auto n = static_cast<std::size_t>(geom_.states());
    ctx.mean.resize(n);
    ctx.sigma.resize(n);
    ctx.tailMean.resize(n);
    ctx.tailSigma.resize(n);
    for (int s = 0; s < geom_.states(); ++s) {
        ctx.mean[static_cast<std::size_t>(s)] =
            model_.stateMean(s, age, ret_f);
        ctx.sigma[static_cast<std::size_t>(s)] =
            model_.stateSigma(s, age, sig_f);
        ctx.tailMean[static_cast<std::size_t>(s)] =
            model_.stateTailMean(s, age, ret_f);
        ctx.tailSigma[static_cast<std::size_t>(s)] =
            model_.stateTailSigma(s, age, sig_f);
    }
    ctx.tailThresh = static_cast<std::uint32_t>(
        model_.params().tailWeight * 2048.0);
    ctx.gradient = model_.wordlineGradient(seed_, block, wl);
    ctx.readNoiseSigma = model_.readNoiseSigma();
    return ctx;
}

double
Chip::staticCellVth(const WordlineContext &ctx, int block, int wl, int col,
                    int state) const
{
    const std::uint64_t zh = util::fastHash(
        seed_ ^ kStaticVthSalt, static_cast<std::uint64_t>(block),
        static_cast<std::uint64_t>(wl), static_cast<std::uint64_t>(col));
    // toGaussian consumes the top 53 bits; the low 11 gate the
    // heavy-tail population independently, at zero extra hash cost.
    const bool tail = (zh & 0x7ff) < ctx.tailThresh;
    const double z = util::toGaussian(zh);
    const double frac =
        static_cast<double>(col) / static_cast<double>(geom_.bitlines() - 1)
        - 0.5;
    const auto si = static_cast<std::size_t>(state);
    return (tail ? ctx.tailMean[si] : ctx.mean[si])
        + (tail ? ctx.tailSigma[si] : ctx.sigma[si]) * z
        + ctx.gradient * frac;
}

double
Chip::readNoise(const WordlineContext &ctx, int block, int wl, int col,
                std::uint64_t read_seq) const
{
    if (ctx.readNoiseSigma <= 0.0)
        return 0.0;
    return ctx.readNoiseSigma
        * util::toGaussian(util::fastHash(
            seed_ ^ kReadNoiseSalt, read_seq,
            static_cast<std::uint64_t>(block),
            static_cast<std::uint64_t>(wl),
            static_cast<std::uint64_t>(col)));
}

double
Chip::cellVth(const WordlineContext &ctx, int block, int wl, int col,
              int state, std::uint64_t read_seq) const
{
    double vth = staticCellVth(ctx, block, wl, col, state);
    if (ctx.readNoiseSigma > 0.0)
        vth += readNoise(ctx, block, wl, col, read_seq);
    return vth;
}

double
Chip::senseVth(int block, int wl, int col, std::uint64_t read_seq) const
{
    const WordlineContext ctx = wordlineContext(block, wl);
    return cellVth(ctx, block, wl, col, trueState(block, wl, col), read_seq);
}

void
Chip::readBits(int block, int wl, int page,
               const std::vector<int> &voltages, std::uint64_t read_seq,
               int col_begin, int col_end,
               std::vector<std::uint8_t> &bits_out) const
{
    checkAddress(block, wl);
    util::fatalIf(page < 0 || page >= geom_.pagesPerWordline(),
                  "chip: page out of range");
    util::fatalIf(col_begin < 0 || col_end > geom_.bitlines()
                      || col_begin > col_end,
                  "chip: bad column range");
    util::fatalIf(static_cast<int>(voltages.size()) < geom_.states(),
                  "chip: voltage vector must be indexed 1..boundaries");

    const auto &ks = code_.boundariesOfPage(page);
    std::vector<int> thresholds;
    thresholds.reserve(ks.size());
    for (int k : ks)
        thresholds.push_back(voltages[static_cast<std::size_t>(k)]);

    const WordlineContext ctx = wordlineContext(block, wl);
    const int bit0 = code_.bit(0, page);
    const WordlineContent &c = content(block, wl);

    bits_out.clear();
    bits_out.reserve(static_cast<std::size_t>(col_end - col_begin));
    for (int col = col_begin; col < col_end; ++col) {
        const int state = stateOf(c, col, geom_.states());
        // Quantize to the DAC grid (the comparator resolution), the
        // same rounding WordlineSnapshot applies.
        const int vth = static_cast<int>(std::lround(
            cellVth(ctx, block, wl, col, state, read_seq)));
        int region = 0;
        for (int t : thresholds)
            region += vth > t;
        bits_out.push_back(
            static_cast<std::uint8_t>(bit0 ^ (region & 1)));
    }
}

std::shared_ptr<const WordlineSnapshot>
Chip::memoSnapshot(int block, int wl, std::uint64_t read_seq, int col_begin,
                   int col_end) const
{
    checkAddress(block, wl);
    const SenseMemo::Key key{block, wl, col_begin, col_end, read_seq,
                             generation_[static_cast<std::size_t>(block)]};
    if (auto hit = memo_->find(key))
        return hit;
    return memo_->insert(key, std::make_shared<const WordlineSnapshot>(
                                  *this, block, wl, read_seq, col_begin,
                                  col_end));
}

std::size_t
Chip::senseMemoBytes() const
{
    return memo_->bytes();
}

void
Chip::trueBits(int block, int wl, int page, int col_begin, int col_end,
               std::vector<std::uint8_t> &bits_out) const
{
    checkAddress(block, wl);
    util::fatalIf(page < 0 || page >= geom_.pagesPerWordline(),
                  "chip: page out of range");
    util::fatalIf(col_begin < 0 || col_end > geom_.bitlines()
                      || col_begin > col_end,
                  "chip: bad column range");
    const WordlineContent &c = content(block, wl);
    bits_out.clear();
    bits_out.reserve(static_cast<std::size_t>(col_end - col_begin));
    for (int col = col_begin; col < col_end; ++col) {
        bits_out.push_back(static_cast<std::uint8_t>(
            code_.bit(stateOf(c, col, geom_.states()), page)));
    }
}

} // namespace flash::nand
