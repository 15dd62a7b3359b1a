#include "ecc/soft_sensing.hh"

#include <algorithm>
#include <cmath>

#include "nandsim/sense_kernel.hh"
#include "util/logging.hh"

namespace flash::ecc
{

const char *
sensingModeName(SensingMode mode)
{
    switch (mode) {
      case SensingMode::Hard:
        return "hard";
      case SensingMode::Soft2Bit:
        return "2-bit soft";
      case SensingMode::Soft3Bit:
        return "3-bit soft";
    }
    return "?";
}

int
senseOps(SensingMode mode)
{
    switch (mode) {
      case SensingMode::Hard:
        return 1;
      case SensingMode::Soft2Bit:
        return 3;
      case SensingMode::Soft3Bit:
        return 7;
    }
    return 1;
}

namespace
{

/** LLR magnitude by agreement count, per mode. */
float
llrMagnitude(SensingMode mode, int agreement)
{
    if (mode == SensingMode::Hard)
        return 2.0f;
    // agreement in [0, extra senses]: how many non-center senses
    // matched the center decision. Higher agreement = the cell is
    // far from the threshold = high confidence.
    static const float k2bit[] = {0.5f, 2.0f, 4.5f};
    static const float k3bit[] = {0.3f, 0.8f, 1.5f, 2.4f,
                                  3.3f, 4.2f, 5.2f};
    if (mode == SensingMode::Soft2Bit)
        return k2bit[agreement <= 2 ? agreement : 2];
    return k3bit[agreement <= 6 ? agreement : 6];
}

} // namespace

SoftReadResult
softReadRange(const nand::Chip &chip, int block, int wl, int page,
              const std::vector<int> &voltages, SensingMode mode,
              double delta_dac, std::uint64_t read_seq_base, int col_begin,
              int col_end)
{
    const nand::ChipGeometry &geom = chip.geometry();
    util::fatalIf(col_begin < 0 || col_end > geom.bitlines()
                      || col_begin > col_end,
                  "soft read: bad column range");
    util::fatalIf(page < 0 || page >= geom.pagesPerWordline(),
                  "soft read: page out of range");
    util::fatalIf(static_cast<int>(voltages.size()) < geom.states(),
                  "soft read: voltage vector must be indexed 1..boundaries");

    // Sense 0 is the center at read_seq_base; senses 1.. sit at
    // -half..-1, +1..+half steps of delta_dac and read_seq_base + 1...
    // thresh[op * nk + t] is sense op's voltage for the page's
    // boundary t.
    const nand::GrayCode &code = chip.grayCode();
    const std::vector<int> &ks = code.boundariesOfPage(page);
    const std::size_t nk = ks.size();
    const int ops = senseOps(mode);
    const int half = (ops - 1) / 2;
    std::vector<int> thresh;
    thresh.reserve(static_cast<std::size_t>(ops) * nk);
    const auto addSense = [&](int step) {
        const int off = static_cast<int>(std::lround(step * delta_dac));
        for (const int k : ks)
            thresh.push_back(voltages[static_cast<std::size_t>(k)] + off);
    };
    addSense(0);
    for (int s = -half; s <= half; ++s) {
        if (s != 0)
            addSense(s);
    }
    const unsigned bit0 = static_cast<unsigned>(code.bit(0, page));

    // Agreement counts take 8 values; map them through a tiny table
    // instead of recomputing the LLR magnitude per cell.
    float mags[8];
    for (int a = 0; a < 8; ++a)
        mags[a] = llrMagnitude(mode, a);

    const auto n = static_cast<std::size_t>(col_end - col_begin);
    SoftReadResult out;
    out.hardBits.resize(n);
    out.llr.resize(n);
    const nand::SenseKernel kernel(chip, block, wl);
    nand::SenseKernel::forEachChunk(col_begin, col_end, [&](int col,
                                                            int len) {
        constexpr int kChunk = nand::SenseKernel::kChunk;
        const auto i0 = static_cast<std::size_t>(col - col_begin);
        std::uint8_t *hard = &out.hardBits[i0];
        // The static Vth is hashed once per cell; each sense only
        // adds its own read noise to a copy of it.
        std::uint8_t st[kChunk];
        double static_vth[kChunk];
        double vth[kChunk];
        std::uint8_t agree[kChunk] = {};
        kernel.states(col, len, st);
        kernel.staticVth(col, len, st, static_vth);
        for (int op = 0; op < ops; ++op) {
            std::copy_n(static_vth, len, vth);
            kernel.addReadNoise(col, len,
                                read_seq_base
                                    + static_cast<std::uint64_t>(op),
                                vth);
            const int *t = &thresh[static_cast<std::size_t>(op) * nk];
            for (int i = 0; i < len; ++i) {
                const int v = nand::roundDac(vth[i]);
                unsigned region = 0;
                for (std::size_t j = 0; j < nk; ++j)
                    region += v > t[j];
                const auto bit =
                    static_cast<std::uint8_t>((bit0 ^ region) & 1);
                if (op == 0)
                    hard[i] = bit;
                else
                    agree[i] = static_cast<std::uint8_t>(
                        agree[i] + (bit == hard[i]));
            }
        }
        for (int i = 0; i < len; ++i) {
            const float mag = mags[agree[i]];
            out.llr[i0 + static_cast<std::size_t>(i)] =
                hard[i] ? -mag : mag;
        }
    });
    return out;
}

} // namespace flash::ecc
