/**
 * @file
 * Fig 19: LDPC decoding success rate vs P/E cycles for hard, 2-bit
 * soft and 3-bit soft sensing, comparing OPT (optimal voltages, full
 * parity), current flash (vendor-retry final voltages, full parity)
 * and sentinel (calibrated voltages, parity reduced by the sentinel
 * cells). Real min-sum decoding over error vectors read from the
 * chip model (all-zero-codeword transform).
 */

#include "bench_support.hh"
#include "core/read_policy.hh"
#include "ecc/ldpc.hh"
#include "ecc/soft_sensing.hh"
#include "nandsim/read_seq.hh"
#include "util/rng.hh"

using namespace flash;

namespace
{

constexpr int kZ = 509;
constexpr int kFrames = 8;

/** Decode one frame read at the given voltages. */
bool
decodeFrame(const nand::Chip &chip, int wl, const std::vector<int> &volts,
            ecc::SensingMode mode, const ecc::QcLdpc &code,
            const ecc::MinSumDecoder &decoder, std::uint64_t seq)
{
    const int msb = chip.grayCode().msbPage();
    const auto read = ecc::softReadRange(chip, bench::kEvalBlock, wl, msb,
                                         volts, mode, 6.0, seq, 0,
                                         code.n());
    std::vector<std::uint8_t> truth;
    chip.trueBits(bench::kEvalBlock, wl, msb, 0, code.n(), truth);
    std::vector<float> llr(read.llr.size());
    for (std::size_t i = 0; i < llr.size(); ++i)
        llr[i] = read.llr[i] * (truth[i] ? -1.0f : 1.0f);
    return decoder.decode(llr).success;
}

} // namespace

int
main(int argc, char **argv)
{
    util::Args args(argc, argv);
    const int threads = bench::threadsArg(args);
    args.check();
    bench::header("Figure 19",
                  "LDPC decoding success rate: OPT / current flash / "
                  "sentinel x hard / 2-bit / 3-bit soft, P/E 0..5K + 1 y "
                  "(QLC)",
                  "all 100% within 1K P/E; beyond that the sentinel "
                  "variant (weaker parity) dips slightly under hard and "
                  "2-bit decoding; soft sensing recovers it");

    auto chip = bench::makeQlcChip();
    const auto tables = bench::characterize(chip, 48, threads);
    const auto overlay =
        core::makeOverlay(chip.geometry(), core::SentinelConfig{});
    chip.programBlock(bench::kEvalBlock, bench::kChipSeed ^ 0x19, overlay);

    const auto defaults = chip.model().defaultVoltages();
    const nand::OracleSearch oracle;

    // Full-parity code vs the sentinel code that gave up parity
    // space to the sentinel cells. The QC granularity quantizes the
    // paper's 0.2% parity loss into one extra data block column, so
    // the capability gap here is coarser than the real one (noted in
    // EXPERIMENTS.md).
    const ecc::QcLdpc full_code(kZ, 3, 8);     // rate 0.625
    const ecc::QcLdpc sentinel_code(kZ, 3, 9); // rate 0.667
    const ecc::MinSumDecoder full_dec(full_code);
    const ecc::MinSumDecoder sent_dec(sentinel_code);

    const ecc::EccModel ecc_model(ecc::EccConfig{16384, 160});
    const std::vector<ecc::SensingMode> modes{
        ecc::SensingMode::Hard, ecc::SensingMode::Soft2Bit,
        ecc::SensingMode::Soft3Bit};

    util::TextTable table;
    table.header({"sensing", "P/E", "OPT", "current flash", "sentinel"});

    std::size_t mode_idx = 0;
    for (const auto mode : modes) {
        ++mode_idx;
        for (std::uint32_t pe : {0u, 1000u, 2000u, 3000u, 4000u, 5000u}) {
            bench::ageBlock(chip, bench::kEvalBlock, pe);

            core::VendorRetryPolicy vendor(chip.model());
            core::SentinelPolicy sentinel(tables, defaults);

            // Aging above is the last chip mutation: frames only read,
            // each drawing its noise from (mode, P/E, wordline), so
            // the Monte-Carlo loop runs on any number of threads with
            // bit-identical counts. The policy contexts share one
            // clock stream (a paired comparison: vendor and sentinel
            // see the same noise); the decode reads use a second
            // stream so the sequences don't overlap.
            const nand::ReadClock ctx_clock(
                util::hashWords({0xF19, mode_idx, pe, 0}));
            const nand::ReadClock dec_clock(
                util::hashWords({0xF19, mode_idx, pe, 1}));

            struct FrameOk
            {
                int opt = 0, cur = 0, sen = 0;
            };
            std::vector<FrameOk> ok(kFrames);
            util::parallelFor(threads, kFrames, [&](int f) {
                const int wl = 40 * f + 7;
                nand::ReadSeq seq =
                    dec_clock.session(bench::kEvalBlock, wl);
                FrameOk &r = ok[static_cast<std::size_t>(f)];

                const auto snap = nand::WordlineSnapshot::dataRegion(
                    chip, bench::kEvalBlock, wl, seq.next());
                const auto vopt = oracle.optimalVoltages(snap, defaults);
                r.opt = decodeFrame(chip, wl, vopt, mode, full_code,
                                    full_dec, seq.next());

                core::ReadContext vctx(chip, bench::kEvalBlock, wl,
                                       chip.grayCode().msbPage(),
                                       ecc_model, overlay, ctx_clock);
                const auto vses = vendor.read(vctx);
                r.cur = decodeFrame(chip, wl, vses.finalVoltages, mode,
                                    full_code, full_dec, seq.next());

                core::ReadContext sctx(chip, bench::kEvalBlock, wl,
                                       chip.grayCode().msbPage(),
                                       ecc_model, overlay, ctx_clock);
                const auto sses = sentinel.read(sctx);
                r.sen = decodeFrame(chip, wl, sses.finalVoltages, mode,
                                    sentinel_code, sent_dec, seq.next());
            });

            int opt_ok = 0, cur_ok = 0, sen_ok = 0;
            for (const FrameOk &r : ok) {
                opt_ok += r.opt;
                cur_ok += r.cur;
                sen_ok += r.sen;
            }
            table.row({ecc::sensingModeName(mode), util::fmtInt(pe),
                       util::fmtPct(static_cast<double>(opt_ok) / kFrames,
                                    0),
                       util::fmtPct(static_cast<double>(cur_ok) / kFrames,
                                    0),
                       util::fmtPct(static_cast<double>(sen_ok) / kFrames,
                                    0)});
        }
    }
    table.print(std::cout);

    bench::footer("success stays at 100% for low P/E everywhere; at high "
                  "P/E the sentinel column (higher-rate code) can dip "
                  "first under hard/2-bit sensing while 3-bit soft keeps "
                  "everything decodable - the paper's Fig 19 ordering");
    return 0;
}
