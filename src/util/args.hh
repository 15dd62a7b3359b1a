/**
 * @file
 * The command-line parser of every bench and tool. Each flag is
 * declared once, at the call that reads it; check() then vets the
 * whole command line before the program does any work:
 *
 *   util::Args args(argc, argv);
 *   const int reps = args.number<int>("reps", 5, 1, 100000);
 *   const std::string file = args.positional("FILE");
 *   args.check();
 *
 * Values are `--name V` or `--name=V`, never empty and never starting
 * with `--`; the last occurrence wins. A declaration returns its
 * fallback when the flag is absent or bad. check() rejects unknown
 * flags (prefixes of declared names too), stray positionals, a value
 * on a bare flag, missing values and required arguments, malformed or
 * out-of-range numbers and values outside a choice list: it prints
 * the first error and the generated usage line, and exits 2.
 */

#ifndef SENTINELFLASH_UTIL_ARGS_HH
#define SENTINELFLASH_UTIL_ARGS_HH

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace flash::util
{

/** Strict argv parser; see the file comment. */
class Args
{
  public:
    Args(int argc, char **argv);

    /**
     * `--name N` (an integral T, base 10) or `--name X` (a floating T)
     * in [@p lo, @p hi]; required without @p fallback. T is one of
     * int, long, unsigned long and double.
     */
    template <typename T>
    T number(const std::string &name,
             std::type_identity_t<std::optional<T>> fallback,
             std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
             std::type_identity_t<T> hi = std::numeric_limits<T>::max());

    /** `--name META`: any string. */
    std::string text(const std::string &name, const std::string &meta,
                     const std::string &fallback = {});

    /** `--name C`, C one of @p choices. */
    std::string choice(const std::string &name,
                       const std::vector<std::string> &choices,
                       const std::string &fallback);

    /** Presence of the bare flag `--name`. */
    bool flag(const std::string &name);

    /** The next positional argument; declare positionals last. */
    std::string positional(const std::string &meta, bool required = true);

    /** Record an error for check() (a rule across flags). */
    void
    reject(const std::string &msg)
    {
        if (error_.empty())
            error_ = msg;
    }

    /** Exit 2 on any error; see the file comment. */
    void check();

    /** `usage: PROG ...`, generated from the declarations. */
    std::string usage() const;

  private:
    struct Decl
    {
        std::string name; ///< `--name`, or a positional's META
        std::string meta; ///< empty for a bare flag
        bool required;
    };

    /** The command line under the declarations so far. */
    struct Parsed
    {
        std::map<std::string, std::string> values;
        std::vector<std::string> positionals;
        std::string error; ///< the first one
    };

    std::optional<std::string> value(const std::string &name,
                                     const std::string &meta,
                                     bool required = false);
    Parsed parse() const;

    std::string prog_;
    std::vector<std::string> args_;
    std::vector<Decl> flags_;
    std::vector<Decl> positionals_;
    std::string error_; ///< the first one rejected
    bool checked_ = false;
};

} // namespace flash::util

#endif // SENTINELFLASH_UTIL_ARGS_HH
