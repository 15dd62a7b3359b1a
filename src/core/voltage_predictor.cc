#include "core/voltage_predictor.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace flash::core
{

namespace
{

/** Upper-triangle index of moment (i, j), i <= j. */
constexpr int
triIndex(int i, int j)
{
    return i * 4 - i * (i - 1) / 2 + (j - i);
}

} // namespace

void
VoltageModelConfig::validate() const
{
    util::fatalIf(chunkBlocks < 1, "VoltageModelConfig: bad chunk size");
    util::fatalIf(std::isnan(confidenceThreshold)
                      || confidenceThreshold < 0.0
                      || confidenceThreshold > 1.0,
                  "VoltageModelConfig: confidence threshold out of [0, 1]");
}

VoltagePredictor::VoltagePredictor(VoltageModelConfig config)
    : config_(config)
{
    config_.validate();
}

void
VoltagePredictor::features(const BlockEpoch &epoch, double (&x)[kFeatures])
{
    // Scaled so every feature is O(1) over the benches' aging ranges:
    // the ridge then shrinks all weights comparably and the solve
    // stays well-conditioned without per-chunk normalization state.
    x[0] = 1.0;
    x[1] = static_cast<double>(epoch.peCycles) / 1000.0;
    x[2] = std::log1p(std::max(0.0, epoch.retentionHours));
    x[3] = (epoch.retentionTempC - 25.0) / 10.0;
}

void
VoltagePredictor::observe(int block, const BlockEpoch &epoch,
                          int sentinel_offset)
{
    double x[kFeatures];
    features(epoch, x);
    const double y = static_cast<double>(sentinel_offset);

    std::lock_guard<std::mutex> lock(mutex_);
    Chunk &chunk = chunks_[chunkOf(block)];
    ++chunk.n;
    for (int i = 0; i < kFeatures; ++i) {
        for (int j = i; j < kFeatures; ++j)
            chunk.xtx[triIndex(i, j)].add(x[i] * x[j]);
        chunk.xty[i].add(x[i] * y);
    }
    chunk.yy.add(y * y);
    chunk.solved = false;
    ++stats_.observes;
}

void
VoltagePredictor::solveChunk(Chunk &chunk) const
{
    // Ridge normal equations (XtX + lambda I) w = Xty on the exactly-
    // rounded moments; 4x4 Gaussian elimination, partial pivoting.
    double a[kFeatures][kFeatures + 1];
    for (int i = 0; i < kFeatures; ++i) {
        for (int j = 0; j < kFeatures; ++j) {
            a[i][j] =
                chunk.xtx[triIndex(std::min(i, j), std::max(i, j))].value();
        }
        a[i][i] += kRidgeLambda;
        a[i][kFeatures] = chunk.xty[i].value();
    }
    for (int col = 0; col < kFeatures; ++col) {
        int pivot = col;
        for (int r = col + 1; r < kFeatures; ++r) {
            if (std::fabs(a[r][col]) > std::fabs(a[pivot][col]))
                pivot = r;
        }
        if (pivot != col) {
            for (int c = col; c <= kFeatures; ++c)
                std::swap(a[col][c], a[pivot][c]);
        }
        // The ridge keeps the matrix positive definite, so the pivot
        // is bounded below by lambda; no singular branch needed.
        for (int r = col + 1; r < kFeatures; ++r) {
            const double f = a[r][col] / a[col][col];
            for (int c = col; c <= kFeatures; ++c)
                a[r][c] -= f * a[col][c];
        }
    }
    for (int i = kFeatures - 1; i >= 0; --i) {
        double v = a[i][kFeatures];
        for (int j = i + 1; j < kFeatures; ++j)
            v -= a[i][j] * chunk.w[j];
        chunk.w[i] = v / a[i][i];
    }

    // SSE = yy - 2 w.Xty + w.XtX.w, evaluated from the same moments.
    double sse = chunk.yy.value();
    for (int i = 0; i < kFeatures; ++i) {
        sse -= 2.0 * chunk.w[i] * chunk.xty[i].value();
        for (int j = 0; j < kFeatures; ++j) {
            sse += chunk.w[i] * chunk.w[j]
                * chunk.xtx[triIndex(std::min(i, j), std::max(i, j))]
                      .value();
        }
    }
    const double n = static_cast<double>(chunk.n);
    chunk.residualStd = n > 0.0 ? std::sqrt(std::max(0.0, sse) / n) : 0.0;
    // Confidence gates on the standard error of the *predicted mean*
    // (residual / sqrt(n)), not the raw residual: wordline-to-wordline
    // scatter inside a chunk is irreducible noise for a chunk-level
    // predictor, and the gated fast path only needs the mean offset —
    // exactly what the voltage cache replays without any gate at all.
    const double se = n > 0.0 ? chunk.residualStd / std::sqrt(n) : 0.0;
    chunk.conf = (n / (n + kConfSamples)) / (1.0 + se / kConfSigmaDac);
    chunk.solved = true;
}

VoltagePrediction
VoltagePredictor::predictLocked(const Chunk *chunk, const BlockEpoch &epoch,
                                bool use_cache) const
{
    VoltagePrediction out;
    if (chunk == nullptr || chunk->n == 0)
        return out;

    Chunk fresh;
    const Chunk *solved = chunk;
    if (use_cache) {
        if (!chunk->solved)
            solveChunk(const_cast<Chunk &>(*chunk));
    } else {
        fresh = *chunk;
        fresh.solved = false;
        solveChunk(fresh);
        solved = &fresh;
    }

    double x[kFeatures];
    features(epoch, x);
    double y = 0.0;
    for (int i = 0; i < kFeatures; ++i)
        y += solved->w[i] * x[i];
    const double clamp = static_cast<double>(kMaxOffsetDac);
    out.predicted = std::clamp(y, -clamp, clamp);
    out.sentinelOffset = static_cast<int>(std::lround(out.predicted));
    out.residualStd = solved->residualStd;
    out.confidence = solved->conf;
    out.samples = solved->n;
    out.confident = solved->n >= kMinSamples
        && solved->conf >= config_.confidenceThreshold;
    return out;
}

VoltagePrediction
VoltagePredictor::predict(int block, const BlockEpoch &epoch) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.predicts;
    const auto it = chunks_.find(chunkOf(block));
    return predictLocked(it == chunks_.end() ? nullptr : &it->second,
                         epoch, true);
}

VoltagePrediction
VoltagePredictor::predictFresh(int block, const BlockEpoch &epoch) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.predicts;
    const auto it = chunks_.find(chunkOf(block));
    return predictLocked(it == chunks_.end() ? nullptr : &it->second,
                         epoch, false);
}

double
VoltagePredictor::confidence(int block) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = chunks_.find(chunkOf(block));
    if (it == chunks_.end() || it->second.n == 0)
        return 0.0;
    if (!it->second.solved)
        solveChunk(it->second);
    return it->second.conf;
}

bool
VoltagePredictor::confidentBlock(int block) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = chunks_.find(chunkOf(block));
    if (it == chunks_.end() || it->second.n < kMinSamples)
        return false;
    if (!it->second.solved)
        solveChunk(it->second);
    return it->second.conf >= config_.confidenceThreshold;
}

void
VoltagePredictor::noteFastAttempt()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.fastAttempts;
}

void
VoltagePredictor::noteFastHit()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.fastHits;
}

void
VoltagePredictor::noteFastMiss()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.fastMisses;
}

void
VoltagePredictor::noteLowConfidence()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.lowConfidence;
}

std::size_t
VoltagePredictor::chunks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return chunks_.size();
}

double
VoltagePredictor::meanConfidence() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (chunks_.empty())
        return 0.0;
    double sum = 0.0;
    for (auto &kv : chunks_) {
        if (!kv.second.solved)
            solveChunk(kv.second);
        sum += kv.second.conf;
    }
    return sum / static_cast<double>(chunks_.size());
}

double
VoltagePredictor::confidentFraction() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (chunks_.empty())
        return 0.0;
    int confident = 0;
    for (auto &kv : chunks_) {
        if (!kv.second.solved)
            solveChunk(kv.second);
        if (kv.second.n >= kMinSamples
            && kv.second.conf >= config_.confidenceThreshold)
            ++confident;
    }
    return static_cast<double>(confident)
        / static_cast<double>(chunks_.size());
}

VoltagePredictor::Stats
VoltagePredictor::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
VoltagePredictor::exportMetrics(util::MetricsRegistry &metrics) const
{
    const Stats s = stats();
    metrics.add("model.chunks", chunks());
    metrics.add("model.fast_attempt", s.fastAttempts);
    metrics.add("model.fast_hit", s.fastHits);
    metrics.add("model.fast_miss", s.fastMisses);
    metrics.add("model.low_confidence", s.lowConfidence);
    metrics.add("model.observe", s.observes);
    metrics.add("model.predict", s.predicts);
}

std::size_t
VoltagePredictor::footprintBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // std::map nodes carry three pointers + color next to the payload.
    return sizeof(*this)
        + chunks_.size()
        * (sizeof(std::pair<const int, Chunk>) + 4 * sizeof(void *));
}

void
VoltagePredictor::writeStateJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"observes\": " << stats_.observes << ", \"chunks\": [";
    bool first = true;
    for (auto &kv : chunks_) {
        if (!kv.second.solved)
            solveChunk(kv.second);
        const Chunk &c = kv.second;
        os << (first ? "" : ", ") << "{\"id\": " << kv.first
           << ", \"n\": " << c.n << ", \"w\": [";
        for (int i = 0; i < kFeatures; ++i) {
            os << (i ? ", " : "");
            util::writeJsonValue(os, c.w[i]);
        }
        os << "], \"residual_std\": ";
        util::writeJsonValue(os, c.residualStd);
        os << ", \"confidence\": ";
        util::writeJsonValue(os, c.conf);
        os << '}';
        first = false;
    }
    os << "]}";
}

std::string
VoltagePredictor::stateJson() const
{
    std::ostringstream os;
    writeStateJson(os);
    return os.str();
}

} // namespace flash::core
