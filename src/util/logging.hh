/**
 * @file
 * Minimal gem5-flavoured status/error reporting.
 *
 * fatal() is for user/configuration errors the library cannot recover
 * from; panic() is for internal invariant violations (bugs). Both are
 * implemented on top of exceptions so library users and tests can
 * observe them.
 */

#ifndef SENTINELFLASH_UTIL_LOGGING_HH
#define SENTINELFLASH_UTIL_LOGGING_HH

#include <stdexcept>
#include <string>

namespace flash::util
{

/** Raised by fatal(): a configuration/usage error. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Raised by panic(): an internal invariant violation. */
class PanicError : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

/** Report an unrecoverable usage/configuration error. */
[[noreturn]] void fatal(const std::string &msg);

/** Report an internal invariant violation (a library bug). */
[[noreturn]] void panic(const std::string &msg);

/** Print a warning to stderr (does not stop execution). */
void warn(const std::string &msg);

/** Print an informational message to stderr. */
void inform(const std::string &msg);

/** fatal() when the condition holds. */
inline void
fatalIf(bool cond, const std::string &msg)
{
    if (cond)
        fatal(msg);
}

/**
 * fatal() when the condition holds; a literal message becomes a
 * std::string only on the failing path (hot-path checks).
 */
inline void
fatalIf(bool cond, const char *msg)
{
    if (cond) [[unlikely]]
        fatal(msg);
}

/** panic() when the condition holds. */
inline void
panicIf(bool cond, const std::string &msg)
{
    if (cond)
        panic(msg);
}

/** panicIf() for a literal message (no std::string unless it fires). */
inline void
panicIf(bool cond, const char *msg)
{
    if (cond) [[unlikely]]
        panic(msg);
}

} // namespace flash::util

#endif // SENTINELFLASH_UTIL_LOGGING_HH
