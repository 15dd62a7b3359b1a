/**
 * @file
 * Capability-threshold ECC model.
 *
 * The read-policy simulations only need to know whether a page read
 * decodes; modelling the decoder as "succeeds iff every ECC frame has
 * at most t raw bit errors" is the standard abstraction (and how the
 * paper treats hard-decision capability). The real QC-LDPC decoder
 * lives next door for the experiment that needs actual decoding
 * behaviour (Fig 19).
 */

#ifndef SENTINELFLASH_ECC_ECC_MODEL_HH
#define SENTINELFLASH_ECC_ECC_MODEL_HH

#include <cstdint>

namespace flash::ecc
{

/** Frame geometry and correction strength of the page ECC. */
struct EccConfig
{
    /** Data bits protected by one ECC frame (2 KiB frames). */
    int frameBits = 16384;

    /** Correctable raw bit errors per frame. */
    int correctableBits = 98;

    /** Capability expressed as a raw bit error rate. */
    double
    capabilityRber() const
    {
        return static_cast<double>(correctableBits)
            / static_cast<double>(frameBits);
    }
};

/**
 * Deterministic page-decodability model.
 *
 * A page holds several frames; the page read fails when its worst
 * frame exceeds the correction capability. Given only the page-total
 * error count (what a snapshot provides in O(1)), the worst frame is
 * estimated with a Gaussian order-statistic approximation of the
 * binomial per-frame counts: max ~= mu + sigma * sqrt(2 ln F).
 */
class EccModel
{
  public:
    explicit EccModel(const EccConfig &config) : config_(config) {}

    /** Configuration. */
    const EccConfig &config() const { return config_; }

    /** Exact single-frame rule. */
    bool
    frameDecodable(int frame_errors) const
    {
        return frame_errors <= config_.correctableBits;
    }

    /**
     * Whether a page with @p page_errors errors over @p page_bits
     * data bits decodes (all frames within capability).
     */
    bool pageDecodable(std::uint64_t page_errors,
                       std::uint64_t page_bits) const;

    /** Estimated errors in the worst frame of such a page. */
    double worstFrameErrors(std::uint64_t page_errors,
                            std::uint64_t page_bits) const;

  private:
    EccConfig config_;
};

} // namespace flash::ecc

#endif // SENTINELFLASH_ECC_ECC_MODEL_HH
