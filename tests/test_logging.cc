#include <gtest/gtest.h>

#include <string>

#include "util/logging.hh"

namespace flash::util
{
namespace
{

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom"), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(Logging, FatalMessagePreserved)
{
    try {
        fatal("specific message");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("specific message"),
                  std::string::npos);
    }
}

TEST(Logging, FatalIfOnlyOnCondition)
{
    EXPECT_NO_THROW(fatalIf(false, "no"));
    EXPECT_THROW(fatalIf(true, "yes"), FatalError);
}

TEST(Logging, LiteralOverloadsThrowTheSameText)
{
    // fatalIf/panicIf(bool, const char *) defer building the message
    // to the failing path; the text must match the std::string form.
    const auto what = [](auto &&fn) {
        try {
            fn();
        } catch (const std::exception &e) {
            return std::string(e.what());
        }
        return std::string("no throw");
    };
    const char *literal = "chip: block out of range";
    EXPECT_THROW(fatalIf(true, literal), FatalError);
    EXPECT_THROW(panicIf(true, literal), PanicError);
    EXPECT_EQ(what([&] { fatalIf(true, literal); }),
              what([&] { fatalIf(true, std::string(literal)); }));
    EXPECT_EQ(what([&] { fatalIf(true, literal); }),
              "fatal: chip: block out of range");
    EXPECT_EQ(what([&] { panicIf(true, literal); }),
              what([&] { panicIf(true, std::string(literal)); }));
    EXPECT_EQ(what([&] { panicIf(true, literal); }),
              "panic: chip: block out of range");
    EXPECT_NO_THROW(fatalIf(false, literal));
    EXPECT_NO_THROW(panicIf(false, literal));
}

TEST(Logging, PanicIfOnlyOnCondition)
{
    EXPECT_NO_THROW(panicIf(false, "no"));
    EXPECT_THROW(panicIf(true, "yes"), PanicError);
}

TEST(Logging, WarnAndInformDoNotThrow)
{
    EXPECT_NO_THROW(warn("just a warning"));
    EXPECT_NO_THROW(inform("fyi"));
}

TEST(Logging, ErrorTypesAreDistinct)
{
    // PanicError is a logic_error, FatalError a runtime_error: a
    // catch of one must not swallow the other.
    bool caught = false;
    try {
        panic("x");
    } catch (const FatalError &) {
        FAIL() << "panic caught as FatalError";
    } catch (const PanicError &) {
        caught = true;
    }
    EXPECT_TRUE(caught);
}

} // namespace
} // namespace flash::util
