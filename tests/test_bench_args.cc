#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support.hh"

namespace flash::bench
{
namespace
{

/** Build a mutable argv from string arguments. */
struct Args
{
    explicit Args(std::vector<std::string> args) : store(std::move(args))
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

TEST(BenchArgs, ThreadsParsesValidForms)
{
    Args space({"--threads", "8"});
    EXPECT_EQ(threadsArg(space.argc(), space.argv()), 8);
    Args eq({"--threads=3"});
    EXPECT_EQ(threadsArg(eq.argc(), eq.argv()), 3);
    Args absent({"--other", "x"});
    EXPECT_EQ(threadsArg(absent.argc(), absent.argv()), 1);
    Args zero({"--threads", "0"}); // hardware concurrency
    EXPECT_GE(threadsArg(zero.argc(), zero.argv()), 1);
}

TEST(BenchArgsDeathTest, ThreadsRejectsNonNumeric)
{
    Args a({"--threads", "abc"});
    EXPECT_EXIT(threadsArg(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "expected an integer");
}

TEST(BenchArgsDeathTest, ThreadsRejectsTrailingGarbage)
{
    Args a({"--threads=8x"});
    EXPECT_EXIT(threadsArg(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "expected an integer");
}

TEST(BenchArgsDeathTest, ThreadsRejectsOutOfRange)
{
    Args neg({"--threads", "-1"});
    EXPECT_EXIT(threadsArg(neg.argc(), neg.argv()),
                testing::ExitedWithCode(2), "out of range");
    Args huge({"--threads", "99999999999999999999"});
    EXPECT_EXIT(threadsArg(huge.argc(), huge.argv()),
                testing::ExitedWithCode(2), "out of range");
}

TEST(BenchArgsDeathTest, ThreadsRejectsMissingValue)
{
    Args a({"--threads"});
    EXPECT_EXIT(threadsArg(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "missing value");
}

TEST(BenchArgsDeathTest, ThreadsRejectsEmptyValue)
{
    Args a({"--threads="});
    EXPECT_EXIT(threadsArg(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "expected an integer");
}

TEST(BenchArgs, RequestsFallbackAndOverride)
{
    Args absent({});
    EXPECT_EQ(requestsArg(absent.argc(), absent.argv(), 777), 777);
    Args set({"--requests", "123"});
    EXPECT_EQ(requestsArg(set.argc(), set.argv(), 777), 123);
}

TEST(BenchArgsDeathTest, RequestsRejectsZeroAndGarbage)
{
    Args zero({"--requests", "0"});
    EXPECT_EXIT(requestsArg(zero.argc(), zero.argv(), 5),
                testing::ExitedWithCode(2), "out of range");
    Args junk({"--requests", "1e4"}); // integers take no exponent
    EXPECT_EXIT(requestsArg(junk.argc(), junk.argv(), 5),
                testing::ExitedWithCode(2), "expected an integer");
}

TEST(BenchArgsDeathTest, RefreshRberRejectsAboveOne)
{
    Args a({"--refresh-rber", "1.5"});
    EXPECT_EXIT(refreshRberArg(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "out of range");
}

TEST(BenchArgs, VoltageModelFlagAndConfidence)
{
    Args absent({});
    EXPECT_FALSE(voltageModelArg(absent.argc(), absent.argv()));
    EXPECT_EQ(modelConfidenceArg(absent.argc(), absent.argv(), 0.7), 0.7);
    Args set({"--voltage-model", "--model-confidence", "0.25"});
    EXPECT_TRUE(voltageModelArg(set.argc(), set.argv()));
    EXPECT_EQ(modelConfidenceArg(set.argc(), set.argv()), 0.25);
}

TEST(BenchArgsDeathTest, ModelConfidenceRejectsBadValues)
{
    Args above({"--model-confidence", "1.5"});
    EXPECT_EXIT(modelConfidenceArg(above.argc(), above.argv()),
                testing::ExitedWithCode(2), "out of range");
    Args neg({"--model-confidence=-0.1"});
    EXPECT_EXIT(modelConfidenceArg(neg.argc(), neg.argv()),
                testing::ExitedWithCode(2), "out of range");
    Args junk({"--model-confidence", "high"});
    EXPECT_EXIT(modelConfidenceArg(junk.argc(), junk.argv()),
                testing::ExitedWithCode(2), "expected a number");
}

TEST(BenchArgs, FtlAndGcPolicyParseValidForms)
{
    Args absent({"--other", "x"});
    EXPECT_EQ(ftlArg(absent.argc(), absent.argv()), ssd::FtlKind::Page);
    EXPECT_EQ(gcPolicyArg(absent.argc(), absent.argv()),
              ssd::GcVictimPolicy::Greedy);
    Args page({"--ftl", "page", "--gc-policy", "greedy"});
    EXPECT_EQ(ftlArg(page.argc(), page.argv()), ssd::FtlKind::Page);
    EXPECT_EQ(gcPolicyArg(page.argc(), page.argv()),
              ssd::GcVictimPolicy::Greedy);
    Args fast({"--ftl=fast", "--gc-policy=costbenefit"});
    EXPECT_EQ(ftlArg(fast.argc(), fast.argv()), ssd::FtlKind::Fast);
    EXPECT_EQ(gcPolicyArg(fast.argc(), fast.argv()),
              ssd::GcVictimPolicy::CostBenefit);
}

TEST(BenchArgsDeathTest, FtlRejectsUnknownKind)
{
    Args a({"--ftl", "dftl"});
    EXPECT_EXIT(ftlArg(a.argc(), a.argv()), testing::ExitedWithCode(2),
                "expected \"page\" or \"fast\"");
    Args caps({"--ftl=Page"}); // strict: no case folding
    EXPECT_EXIT(ftlArg(caps.argc(), caps.argv()),
                testing::ExitedWithCode(2), "expected \"page\" or \"fast\"");
    Args empty({"--ftl="});
    EXPECT_EXIT(ftlArg(empty.argc(), empty.argv()),
                testing::ExitedWithCode(2), "expected \"page\" or \"fast\"");
}

TEST(BenchArgsDeathTest, GcPolicyRejectsUnknownPolicy)
{
    Args a({"--gc-policy", "random"});
    EXPECT_EXIT(gcPolicyArg(a.argc(), a.argv()),
                testing::ExitedWithCode(2),
                "expected \"greedy\" or \"costbenefit\"");
    Args dash({"--gc-policy=cost-benefit"}); // strict: exact spelling
    EXPECT_EXIT(gcPolicyArg(dash.argc(), dash.argv()),
                testing::ExitedWithCode(2),
                "expected \"greedy\" or \"costbenefit\"");
}

TEST(BenchArgs, LastOccurrenceWins)
{
    Args a({"--threads", "2", "--threads", "6"});
    EXPECT_EQ(threadsArg(a.argc(), a.argv()), 6);
    Args b({"--requests=10", "--requests=20"});
    EXPECT_EQ(requestsArg(b.argc(), b.argv(), 1), 20);
}

TEST(BenchArgs, StringAndFlagArgsUnchanged)
{
    Args a({"--workload", "usr_0", "--flag"});
    EXPECT_EQ(stringArg(a.argc(), a.argv(), "workload"), "usr_0");
    EXPECT_TRUE(flagArg(a.argc(), a.argv(), "flag"));
    EXPECT_FALSE(flagArg(a.argc(), a.argv(), "other"));
    EXPECT_EQ(stringArg(a.argc(), a.argv(), "absent"), "");
}

/** Flag set of bench_fleet, the bench of the `--device` typo. */
void
acceptFleetFlags(Args &a)
{
    acceptFlags(a.argc(), a.argv(), {"threads", "devices", "requests"},
                {"shuffle"});
}

TEST(BenchArgs, AcceptFlagsPassesDeclaredForms)
{
    Args a({"--threads", "4", "--shuffle", "--devices=8", "--requests",
            "-5"}); // a value is never read as a flag
    acceptFleetFlags(a);
    EXPECT_EQ(threadsArg(a.argc(), a.argv()), 4);
    Args none({});
    acceptFleetFlags(none);
}

TEST(BenchArgsDeathTest, AcceptFlagsRejectsDeviceTypo)
{
    Args a({"--device", "8", "--requests", "20"});
    EXPECT_EXIT(acceptFleetFlags(a), testing::ExitedWithCode(2),
                "unknown flag --device; accepted: --threads V --devices V");
}

TEST(BenchArgsDeathTest, AcceptFlagsRejectsMisspelledFig14Flags)
{
    Args a({"--request", "10", "--threds", "4"});
    EXPECT_EXIT(acceptFlags(a.argc(), a.argv(), {"threads", "requests"},
                            {"voltage-cache"}),
                testing::ExitedWithCode(2), "unknown flag --request;");
    Args eq({"--threads=4", "--threds=4"});
    EXPECT_EXIT(acceptFlags(eq.argc(), eq.argv(), {"threads"}),
                testing::ExitedWithCode(2), "unknown flag --threds;");
}

TEST(BenchArgsDeathTest, AcceptFlagsRejectsPrefixesOfDeclaredNames)
{
    Args a({"--thread", "4"});
    EXPECT_EXIT(acceptFleetFlags(a), testing::ExitedWithCode(2),
                "unknown flag --thread;");
    Args longer({"--shuffled"});
    EXPECT_EXIT(acceptFleetFlags(longer), testing::ExitedWithCode(2),
                "unknown flag --shuffled;");
}

TEST(BenchArgsDeathTest, AcceptFlagsRejectsValueOnBareFlag)
{
    Args a({"--shuffle=1"});
    EXPECT_EXIT(acceptFleetFlags(a), testing::ExitedWithCode(2),
                "--shuffle takes no value");
}

TEST(BenchArgsDeathTest, AcceptFlagsRejectsStrayArguments)
{
    Args a({"--shuffle", "8"});
    EXPECT_EXIT(acceptFleetFlags(a), testing::ExitedWithCode(2),
                "unexpected argument \"8\"");
    Args dash({"-threads", "4"});
    EXPECT_EXIT(acceptFleetFlags(dash), testing::ExitedWithCode(2),
                "unexpected argument \"-threads\"");
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
        Args a({"--out", dir.string()});
        OutDir out(a.argc(), a.argv());
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
        Args a({"--out=" + dir.string(), "--spans", "7"});
        OutDir out(a.argc(), a.argv());
        ASSERT_NE(out.spans(), nullptr);
        EXPECT_EQ(out.spans()->capacity(), 7u);
    }
    // The empty trace still writes its summary line.
    EXPECT_FALSE(slurp(dir / "spans.jsonl").empty());
    std::filesystem::remove_all(dir);
}

TEST(BenchArgs, NoOutWritesNothing)
{
    Args a({"--threads", "2"});
    OutDir out(a.argc(), a.argv());
    EXPECT_FALSE(out.enabled());
    EXPECT_EQ(out.open("metrics.json"), nullptr);
    EXPECT_EQ(out.spans(), nullptr);
}

TEST(BenchArgsDeathTest, SpansWithoutOutIsAUsageError)
{
    Args a({"--spans", "1000"});
    EXPECT_EXIT(OutDir(a.argc(), a.argv()), testing::ExitedWithCode(2),
                "--spans needs --out DIR");
}

TEST(BenchArgsDeathTest, SpansRejectsZero)
{
    const std::filesystem::path dir = scratchPath("zero");
    Args a({"--out", dir.string(), "--spans", "0"});
    EXPECT_EXIT(OutDir(a.argc(), a.argv()), testing::ExitedWithCode(2),
                "--spans: value 0 out of range");
}

TEST(BenchArgs, UnwritableOutIsFatal)
{
    // A directory cannot be created underneath a regular file.
    const std::filesystem::path file = scratchPath("file");
    std::ofstream(file) << "not a directory\n";
    Args a({"--out", (file / "run").string()});
    EXPECT_THROW(OutDir(a.argc(), a.argv()), util::FatalError);
    std::filesystem::remove(file);
}

TEST(BenchArgsDeathTest, FailedArtifactWriteExitsNonZero)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full to fail writes";
    const std::filesystem::path dir = scratchPath("full");
    std::filesystem::create_directories(dir);
    std::filesystem::create_symlink("/dev/full", dir / "metrics.json");
    Args a({"--out", dir.string()});
    EXPECT_EXIT(
        {
            OutDir out(a.argc(), a.argv());
            *out.open("metrics.json") << "{}\n";
        },
        testing::ExitedWithCode(1), "cannot write .*metrics.json");
    std::filesystem::remove_all(dir);
}

TEST(BenchArgsDeathTest, RemovedOutputFlagsAreUnknown)
{
    // bench_fig14's accepted flags: the seven per-artifact flags that
    // --out DIR and --spans N replaced must not run the default.
    const auto accept_fig14 = [](Args &a) {
        acceptFlags(a.argc(), a.argv(),
                    {"threads", "out", "spans", "model-confidence",
                     "scrub-interval", "scrub-budget", "refresh-rber",
                     "requests", "ftl", "gc-policy"},
                    {"voltage-cache", "voltage-model"});
    };
    for (const char *flag :
         {"metrics-out", "trace-spans", "health-out", "health-interval",
          "fleet-out", "span-capacity", "json"}) {
        Args a({std::string("--") + flag, "x"});
        EXPECT_EXIT(accept_fig14(a), testing::ExitedWithCode(2),
                    std::string("unknown flag --") + flag + ";");
    }
}

} // namespace
} // namespace flash::bench
