# add_exit_code_test(<name> <code> [PATTERN <regex>] [TIMEOUT <s>]
#                    <command> <arg>...)
#
# Registers a ctest that passes only when <command> exits with <code>
# and, when PATTERN is given, its output (stdout and stderr) matches
# the extended regex. ctest's PASS_REGULAR_EXPRESSION alone ignores
# the exit status, so a binary that printed an error and then exited
# 0 would pass; every exit-code, flag-rejection and smoke test of the
# tools, benches and examples goes through this one helper instead.
# The output is echoed, so a failing test shows what the command said.

function(add_exit_code_test name code)
    cmake_parse_arguments(PARSE_ARGV 2 T "" "PATTERN;TIMEOUT" "")
    set(check "test $rc -eq ${code}")
    if(DEFINED T_PATTERN)
        string(APPEND check
            " && printf '%s\\n' \"$out\" | grep -Eq '${T_PATTERN}'")
    endif()
    add_test(NAME ${name}
        COMMAND sh -c "out=$(\"$0\" \"$@\" 2>&1); rc=$?; printf '%s\\n' \"$out\"; ${check}"
                ${T_UNPARSED_ARGUMENTS})
    if(DEFINED T_TIMEOUT)
        set_tests_properties(${name} PROPERTIES TIMEOUT ${T_TIMEOUT})
    endif()
endfunction()
