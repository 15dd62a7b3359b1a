#!/bin/sh
# Bad lines in the JSON-lines artifacts, end to end through the tools.
#
#   bad_lines.sh health FLEET_REPORT FLEET_MONITOR DATA_DIR
#       One health file with bad JSON, a non-object line, an object
#       with no record kind and an unterminated tail: fleet_report's
#       health summary and fleet_monitor's stats must both count 3
#       malformed lines and 1 ignored line.
#   bad_lines.sh spans TRACE_ANALYZE DATA_DIR
#       spans.jsonl with a garbage line inserted and its last line cut:
#       trace_analyze still prints the analysis, prints the counts and
#       exits 1 (not 2).

set -u
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT

case "$1" in
health)
    {
        cat "$4/health.jsonl"
        printf '%s\n' 'garbage {' '[1, 2]' '{"foo": 1}'
        printf '{"health": "ssd", "dev'
    } > "$tmp/health.jsonl"
    "$2" "$4/fleet.jsonl" --health "$tmp/health.jsonl" \
        --json "$tmp/report.json" > "$tmp/report.txt" || exit 1
    "$3" "$tmp/health.jsonl" > "$tmp/monitor.txt" || exit 1
    field() {
        sed -n "s/.*\"health\": {[^}]*\"$1\": \([0-9]*\).*/\1/p" \
            "$tmp/report.json"
    }
    rm=$(field malformed_lines)
    ri=$(field ignored_lines)
    mm=$(awk '/^malformed lines/ {print $NF}' "$tmp/monitor.txt")
    mi=$(awk '/^ignored lines/ {print $NF}' "$tmp/monitor.txt")
    echo "fleet_report: $rm malformed, $ri ignored;" \
         "fleet_monitor: $mm malformed, $mi ignored"
    test "$rm" = 3 && test "$ri" = 1 && test "$mm" = 3 && test "$mi" = 1
    ;;
spans)
    # Line 6 is garbage; the last 11 bytes (newline included) go.
    {
        head -n 5 "$3/spans.jsonl"
        echo 'garbage'
        sed -n '6,$p' "$3/spans.jsonl"
    } > "$tmp/full.jsonl"
    size=$(wc -c < "$tmp/full.jsonl")
    head -c $((size - 11)) "$tmp/full.jsonl" > "$tmp/spans.jsonl"
    "$2" "$tmp/spans.jsonl" > "$tmp/out.txt"
    rc=$?
    cat "$tmp/out.txt"
    test "$rc" = 1 \
        && grep -q '^input: skipped 2 malformed line(s) (1 truncated tail)' \
            "$tmp/out.txt" \
        && grep -q ' spans, ' "$tmp/out.txt"
    ;;
*)
    echo "usage: $0 health|spans ..." >&2
    exit 2
    ;;
esac
