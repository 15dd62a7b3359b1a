#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_support.hh"

namespace flash::bench
{
namespace
{

/** Build a mutable argv from string arguments. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : store(std::move(args))
    {
        ptrs.push_back(const_cast<char *>("bench"));
        for (std::string &a : store)
            ptrs.push_back(a.data());
    }

    int argc() const { return static_cast<int>(ptrs.size()); }
    char **argv() { return ptrs.data(); }

    std::vector<std::string> store;
    std::vector<char *> ptrs;
};

/**
 * Declare flags with @p declare over @p args, check the command line
 * (exit 2 on any error) and return what @p declare returned.
 */
template <typename F>
auto
parse(std::vector<std::string> args, F declare)
{
    Argv a(std::move(args));
    util::Args parser(a.argc(), a.argv());
    auto v = declare(parser);
    parser.check();
    return v;
}

TEST(BenchArgs, ThreadsParsesValidForms)
{
    EXPECT_EQ(parse({"--threads", "8"}, threadsArg), 8);
    EXPECT_EQ(parse({"--threads=3"}, threadsArg), 3);
    EXPECT_EQ(parse({}, threadsArg), 1);
    EXPECT_GE(parse({"--threads", "0"}, threadsArg), 1); // hardware
}

TEST(BenchArgsDeathTest, ThreadsRejectsNonNumeric)
{
    EXPECT_EXIT(parse({"--threads", "abc"}, threadsArg),
                testing::ExitedWithCode(2), "expected an integer");
}

TEST(BenchArgsDeathTest, ThreadsRejectsTrailingGarbage)
{
    EXPECT_EXIT(parse({"--threads=8x"}, threadsArg),
                testing::ExitedWithCode(2), "expected an integer");
    EXPECT_EXIT(parse({"--threads", " 8"}, threadsArg),
                testing::ExitedWithCode(2), "expected an integer");
}

TEST(BenchArgsDeathTest, ThreadsRejectsOutOfRange)
{
    EXPECT_EXIT(parse({"--threads", "-1"}, threadsArg),
                testing::ExitedWithCode(2), "out of range");
    EXPECT_EXIT(parse({"--threads", "99999999999999999999"}, threadsArg),
                testing::ExitedWithCode(2), "out of range");
}

TEST(BenchArgsDeathTest, ThreadsRejectsMissingValue)
{
    EXPECT_EXIT(parse({"--threads"}, threadsArg),
                testing::ExitedWithCode(2), "--threads: missing value");
    // A token starting with -- is a flag, never a value.
    EXPECT_EXIT(parse({"--threads", "--threads=2"}, threadsArg),
                testing::ExitedWithCode(2), "--threads: missing value");
}

TEST(BenchArgsDeathTest, ThreadsRejectsEmptyValue)
{
    EXPECT_EXIT(parse({"--threads="}, threadsArg),
                testing::ExitedWithCode(2), "--threads: missing value");
}

int
requests777(util::Args &args)
{
    return requestsArg(args, 777);
}

TEST(BenchArgs, RequestsFallbackAndOverride)
{
    EXPECT_EQ(parse({}, requests777), 777);
    EXPECT_EQ(parse({"--requests", "123"}, requests777), 123);
}

TEST(BenchArgsDeathTest, RequestsRejectsZeroAndGarbage)
{
    EXPECT_EXIT(parse({"--requests", "0"}, requests777),
                testing::ExitedWithCode(2), "out of range");
    // Integers take no exponent.
    EXPECT_EXIT(parse({"--requests", "1e4"}, requests777),
                testing::ExitedWithCode(2), "expected an integer");
}

TEST(BenchArgsDeathTest, RefreshRberRejectsAboveOne)
{
    EXPECT_EXIT(parse({"--refresh-rber", "1.5"}, refreshRberArg),
                testing::ExitedWithCode(2), "out of range");
}

TEST(BenchArgs, VoltageModelFlagAndConfidence)
{
    const auto declare = [](util::Args &args) {
        const bool model = args.flag("voltage-model");
        return std::make_pair(model, modelConfidenceArg(args, 0.7));
    };
    EXPECT_EQ(parse({}, declare), std::make_pair(false, 0.7));
    EXPECT_EQ(parse({"--voltage-model", "--model-confidence", "0.25"},
                    declare),
              std::make_pair(true, 0.25));
}

TEST(BenchArgsDeathTest, ModelConfidenceRejectsBadValues)
{
    const auto confidence = [](util::Args &args) {
        return modelConfidenceArg(args);
    };
    EXPECT_EXIT(parse({"--model-confidence", "1.5"}, confidence),
                testing::ExitedWithCode(2), "out of range");
    EXPECT_EXIT(parse({"--model-confidence=-0.1"}, confidence),
                testing::ExitedWithCode(2), "out of range");
    EXPECT_EXIT(parse({"--model-confidence", "nan"}, confidence),
                testing::ExitedWithCode(2), "out of range");
    EXPECT_EXIT(parse({"--model-confidence", "high"}, confidence),
                testing::ExitedWithCode(2), "expected a number");
}

TEST(BenchArgs, FtlAndGcPolicyParseValidForms)
{
    const auto declare = [](util::Args &args) {
        const ssd::FtlKind ftl = ftlArg(args);
        return std::make_pair(ftl, gcPolicyArg(args));
    };
    EXPECT_EQ(parse({}, declare),
              std::make_pair(ssd::FtlKind::Page,
                             ssd::GcVictimPolicy::Greedy));
    EXPECT_EQ(parse({"--ftl", "page", "--gc-policy", "greedy"}, declare),
              std::make_pair(ssd::FtlKind::Page,
                             ssd::GcVictimPolicy::Greedy));
    EXPECT_EQ(parse({"--ftl=fast", "--gc-policy=costbenefit"}, declare),
              std::make_pair(ssd::FtlKind::Fast,
                             ssd::GcVictimPolicy::CostBenefit));
}

TEST(BenchArgsDeathTest, FtlRejectsUnknownKind)
{
    EXPECT_EXIT(parse({"--ftl", "dftl"}, ftlArg),
                testing::ExitedWithCode(2),
                "--ftl: expected page\\|fast, got \"dftl\"");
    // Strict: no case folding.
    EXPECT_EXIT(parse({"--ftl=Page"}, ftlArg), testing::ExitedWithCode(2),
                "--ftl: expected page\\|fast, got \"Page\"");
    EXPECT_EXIT(parse({"--ftl="}, ftlArg), testing::ExitedWithCode(2),
                "--ftl: missing value");
}

TEST(BenchArgsDeathTest, GcPolicyRejectsUnknownPolicy)
{
    EXPECT_EXIT(parse({"--gc-policy", "random"}, gcPolicyArg),
                testing::ExitedWithCode(2),
                "expected greedy\\|costbenefit, got");
    // Strict: exact spelling.
    EXPECT_EXIT(parse({"--gc-policy=cost-benefit"}, gcPolicyArg),
                testing::ExitedWithCode(2),
                "expected greedy\\|costbenefit, got");
}

TEST(BenchArgs, LastOccurrenceWins)
{
    EXPECT_EQ(parse({"--threads", "2", "--threads", "6"}, threadsArg), 6);
    EXPECT_EQ(parse({"--requests=10", "--requests=20"}, requests777), 20);
}

TEST(BenchArgs, StringAndFlagArgsUnchanged)
{
    const auto declare = [](util::Args &args) {
        const std::string workload = args.text("workload", "NAME");
        const std::string absent = args.text("absent", "NAME", "dflt");
        const bool flag = args.flag("flag");
        const bool other = args.flag("other");
        return std::make_tuple(workload, absent, flag, other);
    };
    EXPECT_EQ(parse({"--workload", "usr_0", "--flag"}, declare),
              std::make_tuple(std::string("usr_0"), std::string("dflt"), true,
                              false));
    // A value may start with a single dash.
    EXPECT_EQ(std::get<0>(parse({"--workload", "-x"}, declare)), "-x");
}

/** Flag set of bench_fleet, the bench of the `--device` typo. */
int
fleetFlags(util::Args &args)
{
    const int threads = threadsArg(args);
    args.number<int>("devices", 64, 1, 4096);
    requestsArg(args, 200);
    args.flag("shuffle");
    return threads;
}

TEST(BenchArgs, AcceptFlagsPassesDeclaredForms)
{
    EXPECT_EQ(parse({"--threads", "4", "--shuffle", "--devices=8",
                     "--requests", "20"},
                    fleetFlags),
              4);
    EXPECT_EQ(parse({}, fleetFlags), 1);
}

TEST(BenchArgsDeathTest, AcceptFlagsRejectsDeviceTypo)
{
    EXPECT_EXIT(parse({"--device", "8", "--requests", "20"}, fleetFlags),
                testing::ExitedWithCode(2),
                "bench: unknown flag --device\nusage: bench \\[--threads N\\] "
                "\\[--devices N\\] \\[--requests N\\] \\[--shuffle\\]");
}

TEST(BenchArgsDeathTest, AcceptFlagsRejectsMisspelledFig14Flags)
{
    const auto declare = [](util::Args &args) {
        const int threads = threadsArg(args);
        requestsArg(args, 60000);
        args.flag("voltage-cache");
        return threads;
    };
    EXPECT_EXIT(parse({"--request", "10", "--threds", "4"}, declare),
                testing::ExitedWithCode(2), "unknown flag --request\n");
    EXPECT_EXIT(parse({"--threads=4", "--threds=4"}, declare),
                testing::ExitedWithCode(2), "unknown flag --threds\n");
}

TEST(BenchArgsDeathTest, AcceptFlagsRejectsPrefixesOfDeclaredNames)
{
    EXPECT_EXIT(parse({"--thread", "4"}, fleetFlags),
                testing::ExitedWithCode(2), "unknown flag --thread\n");
    EXPECT_EXIT(parse({"--shuffled"}, fleetFlags),
                testing::ExitedWithCode(2), "unknown flag --shuffled\n");
}

TEST(BenchArgsDeathTest, AcceptFlagsRejectsValueOnBareFlag)
{
    EXPECT_EXIT(parse({"--shuffle=1"}, fleetFlags),
                testing::ExitedWithCode(2), "--shuffle takes no value");
}

TEST(BenchArgsDeathTest, AcceptFlagsRejectsStrayArguments)
{
    EXPECT_EXIT(parse({"--shuffle", "8"}, fleetFlags),
                testing::ExitedWithCode(2), "unexpected argument \"8\"");
    EXPECT_EXIT(parse({"-threads", "4"}, fleetFlags),
                testing::ExitedWithCode(2),
                "unexpected argument \"-threads\"");
}

/** The argument set of bench_compare: a required flag, a positional. */
std::pair<double, std::string>
compareFlags(util::Args &args)
{
    const double min = args.number<double>("min-speedup", std::nullopt, 0.0);
    return {min, args.positional("FILE.json")};
}

TEST(Args, PositionalsAndRequiredFlags)
{
    EXPECT_EQ(parse({"k.json", "--min-speedup", "1.5"}, compareFlags),
              std::make_pair(1.5, std::string("k.json")));
    EXPECT_EQ(parse({"--min-speedup=0", "k.json"}, compareFlags),
              std::make_pair(0.0, std::string("k.json")));
    const auto optional = [](util::Args &args) {
        return args.positional("FILE", false);
    };
    EXPECT_EQ(parse({}, optional), "");
}

TEST(ArgsDeathTest, MissingOrExtraPositionalsAndRequiredFlags)
{
    EXPECT_EXIT(parse({"k.json"}, compareFlags), testing::ExitedWithCode(2),
                "missing --min-speedup X\nusage: bench FILE.json "
                "--min-speedup X\n");
    EXPECT_EXIT(parse({"--min-speedup", "1"}, compareFlags),
                testing::ExitedWithCode(2), "missing FILE.json");
    EXPECT_EXIT(parse({"a.json", "b.json", "--min-speedup", "1"},
                      compareFlags),
                testing::ExitedWithCode(2), "unexpected argument \"b.json\"");
    EXPECT_EXIT(parse({"k.json", "--min-speedup", "99x"}, compareFlags),
                testing::ExitedWithCode(2),
                "--min-speedup: expected a number, got \"99x\"");
}

TEST(Args, UsageLineWrapsTheDeclarations)
{
    Argv a({});
    util::Args args(a.argc(), a.argv());
    args.flag("follow");
    args.number<double>("frame-interval", 1.0, 0.0, 2.0);
    args.choice("fail-on-alert", {"info", "warn", "critical"}, "");
    args.text("alerts-out", "FILE");
    args.number<int>("top", 8, 1, 100);
    args.number<long>("ring", 64, 2, 100);
    args.positional("HEALTH_FILE", false);
    EXPECT_EQ(args.usage(),
              "usage: bench [HEALTH_FILE] [--follow] [--frame-interval X]\n"
              "             [--fail-on-alert info|warn|critical] "
              "[--alerts-out FILE] [--top N]\n"
              "             [--ring N]");
}

/** A fresh, not yet existing path under the test temp directory. */
std::filesystem::path
scratchPath(const std::string &name)
{
    const std::filesystem::path p =
        std::filesystem::path(testing::TempDir()) / ("bench_args_" + name);
    std::filesystem::remove_all(p);
    return p;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(BenchArgs, OutCreatesMissingNestedDirectory)
{
    const std::filesystem::path root = scratchPath("nested");
    const std::filesystem::path dir = root / "a" / "b";
    {
        Argv a({"--out", dir.string()});
        util::Args args(a.argc(), a.argv());
        OutDir out(args);
        EXPECT_TRUE(out.enabled());
        EXPECT_TRUE(std::filesystem::is_directory(dir));
        EXPECT_EQ(out.spans(), nullptr);
        *out.open("metrics.json") << "{}\n";
    }
    EXPECT_EQ(slurp(dir / "metrics.json"), "{}\n");
    EXPECT_FALSE(std::filesystem::exists(dir / "spans.jsonl"));
    std::filesystem::remove_all(root);
}

TEST(BenchArgs, SpansAreWrittenWhenTheOutDirCloses)
{
    const std::filesystem::path dir = scratchPath("spans");
    {
        Argv a({"--out=" + dir.string(), "--spans", "7"});
        util::Args args(a.argc(), a.argv());
        OutDir out(args, true);
        ASSERT_NE(out.spans(), nullptr);
        EXPECT_EQ(out.spans()->capacity(), 7u);
    }
    // The empty trace still writes its summary line.
    EXPECT_FALSE(slurp(dir / "spans.jsonl").empty());
    std::filesystem::remove_all(dir);
}

TEST(BenchArgs, NoOutWritesNothing)
{
    Argv a({"--threads", "2"});
    util::Args args(a.argc(), a.argv());
    EXPECT_EQ(threadsArg(args), 2);
    OutDir out(args, true);
    EXPECT_FALSE(out.enabled());
    EXPECT_EQ(out.open("metrics.json"), nullptr);
    EXPECT_EQ(out.spans(), nullptr);
}

TEST(BenchArgsDeathTest, SpansWithoutOutIsAUsageError)
{
    Argv a({"--spans", "1000"});
    util::Args args(a.argc(), a.argv());
    EXPECT_EXIT(OutDir(args, true), testing::ExitedWithCode(2),
                "--spans needs --out DIR");
}

TEST(BenchArgsDeathTest, SpansRejectsZero)
{
    const std::filesystem::path dir = scratchPath("zero");
    Argv a({"--out", dir.string(), "--spans", "0"});
    util::Args args(a.argc(), a.argv());
    EXPECT_EXIT(OutDir(args, true), testing::ExitedWithCode(2),
                "--spans: value 0 out of range");
    // Only the bench that accepts spans declares --spans.
    util::Args no_spans(a.argc(), a.argv());
    EXPECT_EXIT(OutDir{no_spans}, testing::ExitedWithCode(2),
                "unknown flag --spans");
}

TEST(ArgsDeathTest, RejectedCommandLineCreatesNothing)
{
    const std::filesystem::path dir = scratchPath("rejected");
    Argv a({"--out", dir.string(), "--threads", "abc"});
    util::Args args(a.argc(), a.argv());
    threadsArg(args);
    EXPECT_EXIT(OutDir{args}, testing::ExitedWithCode(2),
                "--threads: expected an integer");
    EXPECT_FALSE(std::filesystem::exists(dir));
    Argv empty({"--out="});
    util::Args empty_args(empty.argc(), empty.argv());
    EXPECT_EXIT(OutDir{empty_args}, testing::ExitedWithCode(2),
                "--out: missing value");
}

TEST(BenchArgs, UnwritableOutIsFatal)
{
    // A directory cannot be created underneath a regular file.
    const std::filesystem::path file = scratchPath("file");
    std::ofstream(file) << "not a directory\n";
    Argv a({"--out", (file / "run").string()});
    util::Args args(a.argc(), a.argv());
    EXPECT_THROW(OutDir{args}, util::FatalError);
    std::filesystem::remove(file);
}

TEST(BenchArgsDeathTest, FailedArtifactWriteExitsNonZero)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full to fail writes";
    const std::filesystem::path dir = scratchPath("full");
    std::filesystem::create_directories(dir);
    std::filesystem::create_symlink("/dev/full", dir / "metrics.json");
    Argv a({"--out", dir.string()});
    util::Args args(a.argc(), a.argv());
    EXPECT_EXIT(
        {
            OutDir out(args);
            *out.open("metrics.json") << "{}\n";
        },
        testing::ExitedWithCode(1), "cannot write .*metrics.json");
    std::filesystem::remove_all(dir);
}

TEST(BenchArgsDeathTest, RemovedOutputFlagsAreUnknown)
{
    // bench_fig14's flags: the seven per-artifact flags that --out DIR
    // and --spans N replaced must not run the default.
    const auto fig14 = [](util::Args &args) {
        threadsArg(args);
        args.flag("voltage-cache");
        args.flag("voltage-model");
        modelConfidenceArg(args);
        scrubIntervalArg(args);
        scrubBudgetArg(args, 64);
        refreshRberArg(args);
        requestsArg(args, 60000);
        ftlArg(args);
        gcPolicyArg(args);
        OutDir out(args, true);
        return 0;
    };
    for (const char *flag :
         {"metrics-out", "trace-spans", "health-out", "health-interval",
          "fleet-out", "span-capacity", "json"}) {
        Argv a({std::string("--") + flag, "x"});
        util::Args args(a.argc(), a.argv());
        EXPECT_EXIT(fig14(args), testing::ExitedWithCode(2),
                    std::string("unknown flag --") + flag + "\n");
    }
}

} // namespace
} // namespace flash::bench
