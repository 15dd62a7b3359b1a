#!/bin/sh
# Steps of a determinism gate; cmake/DeterminismGate.cmake registers
# each one as a ctest test.
#
#   determinism_gate.sh run DIR CMD [ARG...]
#       Recreate DIR and run CMD inside it, stdout to DIR/stdout.txt.
#   determinism_gate.sh compare GATE_DIR METRICS_DIFF ARTIFACT...
#       Every ARTIFACT of GATE_DIR/t2 and GATE_DIR/t4 must equal the
#       one in GATE_DIR/t1 byte for byte; metrics.json goes through
#       METRICS_DIFF (exact by default). A missing artifact fails.
#       The t2/t4 span files are deleted afterwards.
#   determinism_gate.sh monitor GATE_DIR FLEET_MONITOR
#       fleet_monitor checks over the t1/t2/t4 health and fleet
#       streams of a scrubbing bench_fleet gate.
set -eu

fail() {
    echo "FAIL: $*"
    exit 1
}

run() {
    dir=$1
    shift
    rm -rf "$dir"
    mkdir -p "$dir"
    cd "$dir"
    exec "$@" > stdout.txt
}

compare() {
    dir=$1
    metrics_diff=$2
    shift 2
    status=0
    for t in t2 t4; do
        for artifact in "$@"; do
            base=$dir/t1/$artifact
            other=$dir/$t/$artifact
            if [ ! -f "$base" ] || [ ! -f "$other" ]; then
                echo "FAIL: $artifact missing in t1 or $t"
                status=1
            elif [ "$artifact" = metrics.json ]; then
                "$metrics_diff" "$base" "$other" \
                    || { echo "FAIL: $t/$artifact differs"; status=1; }
            else
                cmp "$base" "$other" \
                    || { echo "FAIL: $t/$artifact differs"; status=1; }
            fi
        done
    done
    rm -f "$dir/t2/spans.jsonl" "$dir/t4/spans.jsonl"
    [ "$status" = 0 ] && echo "t1 == t2 == t4: $*"
    return "$status"
}

monitor() {
    cd "$1"
    mon=$2

    # The gate's fleet scrubs, so its snapshots must carry each
    # device's scrubber state; without it the refresh-queue rules
    # never evaluate.
    grep -q '"scrub_warm_fraction"' t1/health.jsonl \
        || fail "no scrub_warm_fraction in t1/health.jsonl"

    # Frames and alerts must not depend on the thread count (or the
    # t4 run's evaluation order) that produced the health stream.
    for t in t1 t2 t4; do
        "$mon" "$t/health.jsonl" --fleet "$t/fleet.jsonl" \
            --alerts-out "$t/alerts.jsonl" > "$t/frames.txt"
    done
    for t in t2 t4; do
        cmp t1/frames.txt "$t/frames.txt" || fail "$t frames differ"
        cmp t1/alerts.jsonl "$t/alerts.jsonl" || fail "$t alerts differ"
    done

    # Follow mode over a pipe renders the one-shot frames, minus the
    # --fleet reconciliation line a pipe cannot have.
    grep -v '^reconciliation:' t1/frames.txt > oneshot-frames.txt
    cat t1/health.jsonl | "$mon" > follow-frames.txt
    cmp oneshot-frames.txt follow-frames.txt || fail "follow over a pipe"

    # Tailing a file that grows underneath the monitor gives the same
    # frames: the frame clock is simulated time, never wall clock.
    : > grown.jsonl
    "$mon" grown.jsonl --follow --idle-timeout 5 > tail-frames.txt &
    pid=$!
    total=$(wc -l < t1/health.jsonl)
    step=$(( (total + 3) / 4 ))
    for i in 0 1 2 3; do
        tail -n +$(( i * step + 1 )) t1/health.jsonl \
            | head -n "$step" >> grown.jsonl
        sleep 0.4
    done
    wait "$pid"
    cmp oneshot-frames.txt tail-frames.txt || fail "tailing a growing file"

    # Severity gate: warn forced to fire, critical forced silent.
    # Gating on critical passes; gating on warn must exit 3.
    "$mon" t1/health.jsonl --retry-warn 0.01 --retry-crit 1000000 \
        --fail-on-alert critical > /dev/null \
        || fail "critical gate fired"
    rc=0
    "$mon" t1/health.jsonl --retry-warn 0.01 --retry-crit 1000000 \
        --fail-on-alert warn > /dev/null || rc=$?
    [ "$rc" = 3 ] || fail "warn gate exited $rc, expected 3"

    # Reconciliation: a corrupted rollup counter must exit 1.
    sed 's/"fleet.ssd.read.page_ops": \([0-9]*\)/"fleet.ssd.read.page_ops": 1\1/' \
        t1/fleet.jsonl > fleet-corrupt.jsonl
    if cmp -s t1/fleet.jsonl fleet-corrupt.jsonl; then
        fail "the corruption changed nothing"
    fi
    rc=0
    "$mon" t1/health.jsonl --fleet fleet-corrupt.jsonl > /dev/null || rc=$?
    [ "$rc" = 1 ] || fail "corrupted rollup exited $rc, expected 1"
    echo "fleet_monitor checks passed"
}

mode=$1
shift
case $mode in
run | compare | monitor) "$mode" "$@" ;;
*) fail "unknown mode $mode" ;;
esac
