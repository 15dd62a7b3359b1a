# add_determinism_gate(<name> BENCH <target-or-command>
#                      ARTIFACTS <file>...
#                      [ARGS <arg>...] [T4_ARGS <arg>...]
#                      [TRACE_ANALYZE <arg>...]
#                      [FLEET_REPORT] [FLEET_MONITOR])
#
# Registers one determinism gate (DESIGN.md §9), every test labelled
# `determinism`:
#
#   gate_<name>_t1, _t2, _t4   BENCH ARGS --threads N (t4 adds T4_ARGS)
#                              in <build>/gates/<name>/tN; a fixture
#                              for the tests below, PROCESSORS N.
#   gate_<name>_compare        each ARTIFACT of t2 and t4 equals t1's
#                              (cmp; metrics.json via metrics_diff).
#   gate_<name>_trace_analyze  trace_analyze t1/spans.jsonl
#                              --fail-on-drops TRACE_ANALYZE.
#   gate_<name>_fleet_report   fleet_report tail reconciliation of t1.
#   gate_<name>_fleet_monitor  fleet_monitor frames/alerts invariance,
#                              follow mode and exit-code gates.
#
# Post-check outputs (report.json, ...) land in <build>/gates/<name>.

set(SENTINELFLASH_GATE_SCRIPT ${CMAKE_CURRENT_LIST_DIR}/determinism_gate.sh)

function(add_determinism_gate name)
    cmake_parse_arguments(PARSE_ARGV 1 G "FLEET_REPORT;FLEET_MONITOR"
        "BENCH" "ARGS;T4_ARGS;ARTIFACTS;TRACE_ANALYZE")
    if(TARGET ${G_BENCH})
        set(bench $<TARGET_FILE:${G_BENCH}>)
    else()
        set(bench ${G_BENCH})
    endif()
    set(script sh ${SENTINELFLASH_GATE_SCRIPT})
    set(dir ${CMAKE_BINARY_DIR}/gates/${name})
    file(MAKE_DIRECTORY ${dir})

    foreach(t 1 2 4)
        set(extra)
        if(t EQUAL 4)
            set(extra ${G_T4_ARGS})
        endif()
        add_test(NAME gate_${name}_t${t}
            COMMAND ${script} run ${dir}/t${t} ${bench} ${G_ARGS}
                    --threads ${t} ${extra})
        set_tests_properties(gate_${name}_t${t} PROPERTIES
            FIXTURES_SETUP gate_${name})
        list(APPEND tests gate_${name}_t${t})
    endforeach()
    # The t1 run alone feeds the t1-only post-checks, so they overlap
    # the t2/t4 runs. The t4 run reserves four processors; its COST
    # starts it first, before the unit tests fill every slot, and the
    # post-checks' COST starts each one as soon as its runs are done.
    set_tests_properties(gate_${name}_t1 PROPERTIES
        FIXTURES_SETUP "gate_${name};gate_${name}_t1")
    set_tests_properties(gate_${name}_t4 PROPERTIES PROCESSORS 4 COST 1000)

    add_test(NAME gate_${name}_compare
        COMMAND ${script} compare ${dir} $<TARGET_FILE:metrics_diff>
                ${G_ARTIFACTS})
    set(checks gate_${name}_compare)
    if(G_TRACE_ANALYZE)
        add_test(NAME gate_${name}_trace_analyze
            COMMAND trace_analyze t1/spans.jsonl --fail-on-drops
                    ${G_TRACE_ANALYZE}
            WORKING_DIRECTORY ${dir})
        list(APPEND t1_checks gate_${name}_trace_analyze)
    endif()
    if(G_FLEET_REPORT)
        add_test(NAME gate_${name}_fleet_report
            COMMAND fleet_report t1/fleet.jsonl --health t1/health.jsonl
                    --top 10 --json fleet-report.json
            WORKING_DIRECTORY ${dir})
        list(APPEND t1_checks gate_${name}_fleet_report)
    endif()
    if(G_FLEET_MONITOR)
        add_test(NAME gate_${name}_fleet_monitor
            COMMAND ${script} monitor ${dir} $<TARGET_FILE:fleet_monitor>)
        list(APPEND checks gate_${name}_fleet_monitor)
    endif()
    set_tests_properties(${checks} PROPERTIES FIXTURES_REQUIRED gate_${name})
    if(t1_checks)
        set_tests_properties(${t1_checks} PROPERTIES
            FIXTURES_REQUIRED gate_${name}_t1)
    endif()
    set_tests_properties(${checks} ${t1_checks} PROPERTIES COST 100)
    set_tests_properties(${tests} ${checks} ${t1_checks} PROPERTIES
        LABELS determinism)
endfunction()
