/**
 * @file
 * Parametric threshold-voltage (Vth) error model for 3D NAND.
 *
 * This is the substitute for the paper's real Micron 64-layer TLC/QLC
 * chips. Each state's Vth is Gaussian; means and sigmas evolve with
 * P/E cycling, retention time (Arrhenius-accelerated by temperature),
 * per-layer process variation, per-wordline variation, along-wordline
 * spatial gradients, read disturb, and per-read sensing noise. All
 * randomness is counter-based hashing of cell addresses, so a chip is
 * exactly reproducible from one seed.
 *
 * Voltages are in DAC units. Programmed states sit `statePitch` apart
 * (256 for TLC, 128 for QLC, matching the paper's normalization).
 */

#ifndef SENTINELFLASH_NANDSIM_VOLTAGE_MODEL_HH
#define SENTINELFLASH_NANDSIM_VOLTAGE_MODEL_HH

#include <cstdint>
#include <vector>

#include "nandsim/geometry.hh"

namespace flash::nand
{

/** Accumulated wear/aging of one block. */
struct BlockAge
{
    /** Program/erase cycles endured. */
    std::uint32_t peCycles = 0;

    /** Room-temperature-equivalent retention hours (Arrhenius). */
    double effRetentionHours = 0.0;

    /**
     * Effective-hours-weighted mean temperature during retention
     * (deg C). Drives the temperature tilt of the retention
     * sensitivity profile, which is what makes the cross-voltage
     * correlation tables temperature-band-specific (paper III-D).
     */
    double retentionTempC = 25.0;

    /** Reads since the last program (read disturb). */
    std::uint64_t readCount = 0;
};

/** Knobs of the Vth model; see tlcVoltageParams()/qlcVoltageParams(). */
struct VoltageModelParams
{
    double statePitch = 128.0;    ///< DAC between programmed states
    double eraseMean = -340.0;    ///< S0 mean at time 0
    double eraseSigma0 = 90.0;    ///< S0 sigma at time 0
    double programSigma0 = 17.0;  ///< programmed-state sigma at time 0

    double retCoeff = 1.45;       ///< retention shift scale (DAC)
    double retTau = 100.0;        ///< hours scale inside log1p
    double peRetK = 3000.0;       ///< P/E cycles doubling retention rate
    double sigmaPeCoeff = 6e-5;   ///< fractional sigma growth per P/E
    double sigmaRetCoeff = 0.05;  ///< fractional sigma growth per log-ret
    double eraseSigmaPeCoeff = 1e-5; ///< extra erase sigma growth per P/E
    double eraseMeanPeCoeff = 0.004; ///< S0 mean upshift per P/E (DAC)
    double arrheniusEaOverK = 12765.0; ///< Ea/kB in Kelvin (Ea = 1.1 eV)

    double layerAmp = 0.22;       ///< layer retention-factor modulation
    double layerNoise = 0.09;     ///< per-layer random factor sigma
    double layerSigmaAmp = 0.10;  ///< layer sigma-factor modulation
    double wlNoise = 0.05;        ///< per-wordline retention factor sigma
    double gradProb = 0.12;       ///< P(wordline has a strong gradient)
    double gradMagLo = 6.0;       ///< strong gradient, DAC edge-to-edge
    double gradMagHi = 18.0;
    double gradBase = 0.8;        ///< baseline gradient sigma (DAC)
    double readNoiseSigma = 2.5;  ///< per-read sensing noise (DAC)
    double tempTiltCoeff = 0.004; ///< sens-profile tilt per deg C
    double readDisturbCoeff = 1e-5; ///< S0 upshift per read (DAC)

    /**
     * Heavy-tail population: a fraction of cells (RTN / fast-detrap
     * cells) that drift faster and spread wider than the main
     * population. This is what makes real chips' default-read RBER
     * huge while optimal offsets stay moderate (paper Figs 3 vs 6).
     */
    double tailWeight = 0.10;     ///< fraction of tail cells
    double tailShiftMult = 3.0;   ///< tail retention shift multiplier
    double tailSigmaMult = 1.4;   ///< tail sigma multiplier
    double tailExtraCapDac = 26.0; ///< saturation of the extra tail shift

    /**
     * Per-state retention sensitivity (relative charge-loss rate).
     * Calibrated so optimal-offset ranges match the paper's Fig 6.
     */
    std::vector<double> stateSens;
};

/** Default parameter set for the evaluated TLC chip. */
VoltageModelParams tlcVoltageParams();

/** Default parameter set for the evaluated QLC chip. */
VoltageModelParams qlcVoltageParams();

/**
 * Distribution math shared by Chip and WordlineSnapshot. Stateless
 * apart from the parameter set; all variation factors are pure
 * functions of (seed, block, layer/wordline).
 */
class VoltageModel
{
  public:
    VoltageModel(CellType type, VoltageModelParams params);

    /** Model parameters in use. */
    const VoltageModelParams &params() const { return params_; }

    /** Cell type. */
    CellType cellType() const { return type_; }

    /** Number of states. */
    int states() const { return stateCount(type_); }

    /** Nominal (time-0) mean of a state. */
    double nominalMean(int state) const;

    /**
     * Default read voltage for boundary @p k (1-based): the midpoint
     * of the adjacent nominal state means, i.e. the vendor value a
     * fresh chip would use. Integer DAC units.
     */
    int defaultVoltage(int k) const;

    /** All default voltages, index 1..boundaries (index 0 unused). */
    std::vector<int> defaultVoltages() const;

    /** Arrhenius time-acceleration factor of @p tempC relative to 25C. */
    double arrheniusFactor(double tempC) const;

    /** Overall retention shift magnitude R for a given age. */
    double retentionShift(const BlockAge &age) const;

    /**
     * Retention sensitivity of a state under the given retention
     * temperature (the temperature tilt of the profile).
     */
    double stateSensitivity(int state, double retention_temp_c) const;

    /** Per-layer retention multiplier (deterministic in the seed). */
    double layerRetentionFactor(std::uint64_t seed, int block,
                                int layer) const;

    /** Per-layer sigma multiplier. */
    double layerSigmaFactor(std::uint64_t seed, int block, int layer) const;

    /** Per-wordline retention multiplier within its layer. */
    double wordlineFactor(std::uint64_t seed, int block, int wordline) const;

    /**
     * Along-wordline Vth gradient: total DAC difference from the
     * first to the last bitline. Most wordlines get a small value;
     * a gradProb fraction gets a strong one (the inference-failure
     * mechanism that calibration exists to fix).
     */
    double wordlineGradient(std::uint64_t seed, int block,
                            int wordline) const;

    /**
     * Aged mean of a state. @p ret_factor is the product of layer and
     * wordline retention multipliers.
     */
    double stateMean(int state, const BlockAge &age,
                     double ret_factor) const;

    /** Aged sigma of a state. @p sigma_factor is the layer multiplier. */
    double stateSigma(int state, const BlockAge &age,
                      double sigma_factor) const;

    /** Aged mean of the heavy-tail population of a state. */
    double stateTailMean(int state, const BlockAge &age,
                         double ret_factor) const;

    /** Aged sigma of the heavy-tail population of a state. */
    double stateTailSigma(int state, const BlockAge &age,
                          double sigma_factor) const;

    /** Per-read sensing-noise sigma. */
    double readNoiseSigma() const { return params_.readNoiseSigma; }

    /**
     * Lowest/highest representable sensed voltage (the snapshot DAC range),
     * with generous margins for aged distributions.
     */
    int vthMin() const;
    int vthMax() const;

  private:
    CellType type_;
    VoltageModelParams params_;
};

} // namespace flash::nand

#endif // SENTINELFLASH_NANDSIM_VOLTAGE_MODEL_HH
