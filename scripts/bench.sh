#!/usr/bin/env sh
# Performance snapshot: runs the headline benchmarks with -benchmem and
# writes a machine-readable summary (ns/op, B/op, allocs/op, and chips/s
# where the benchmark reports it) to $BENCH_OUT (default BENCH_pr10.json).
# BenchmarkSample and BenchmarkKernelPair also print us/chip: the
# sampling and kernel layers of a pair build.
# After writing it, prints a per-benchmark delta table against the most
# recent other committed BENCH_*.json so regressions and wins are
# visible at a glance.
#
# Usage: [BENCH_OUT=FILE.json] scripts/bench.sh [benchtime] [micro-benchtime]
#   benchtime defaults to 3x; pass e.g. 10x or 2s for steadier numbers.
#   micro-benchtime (default 1s) drives the nanosecond-scale event-bus
#   benchmarks, which need many iterations for stable numbers.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-3x}"
MICROTIME="${2:-1s}"
OUT="${BENCH_OUT:-BENCH_pr10.json}"
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo "== go test -bench (benchtime=$BENCHTIME) =="
go test -run '^$' \
    -bench '^(BenchmarkPopulationBuildPair|BenchmarkPopulationBuildPairCheckpointed|BenchmarkEstimateArmed|BenchmarkMeasure|BenchmarkSample|BenchmarkKernelPair|BenchmarkTable2|BenchmarkTable6|BenchmarkCPUSim|BenchmarkSweepDelta|BenchmarkSweepFullRebuild)$' \
    -benchtime "$BENCHTIME" -benchmem . | tee "$RAW"

echo "== event-bus hot-path benchmarks (benchtime=$MICROTIME) =="
go test -run '^$' \
    -bench '^(BenchmarkEventBusIdlePublish|BenchmarkScopeProgressIdleBus|BenchmarkEventBusPublishOneSubscriber)$' \
    -benchtime "$MICROTIME" -benchmem ./internal/obs/ | tee -a "$RAW"

awk '
BEGIN { print "{"; first = 1 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; chips = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")    ns = $(i - 1)
        if ($(i) == "B/op")     bytes = $(i - 1)
        if ($(i) == "allocs/op") allocs = $(i - 1)
        if ($(i) == "chips/s")  chips = $(i - 1)
    }
    if (ns == "") next
    if (!first) printf ",\n"
    first = 0
    printf "  \"%s\": {\"ns_per_op\": %s", name, ns
    if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    if (chips != "")  printf ", \"chips_per_sec\": %s", chips
    printf "}"
}
END { print "\n}" }
' "$RAW" > "$OUT"

echo "wrote $OUT:"
cat "$OUT"

# Delta table: compare against the most recently modified BENCH_*.json
# other than the one just written. Positive ns/op deltas are slower,
# positive chips/s deltas are faster.
PREV=$(ls -t BENCH_*.json 2>/dev/null | grep -vx "$OUT" | head -n 1 || true)
if [ -n "$PREV" ]; then
    echo ""
    echo "== delta vs $PREV =="
    awk -v prevfile="$PREV" '
    function parse(file, store,    line, name, m, kv) {
        while ((getline line < file) > 0) {
            if (!match(line, /"Benchmark[^"]+"/)) continue
            name = substr(line, RSTART + 1, RLENGTH - 2)
            line = substr(line, RSTART + RLENGTH)
            while (match(line, /"[a-z_]+": *[0-9.]+/)) {
                m = substr(line, RSTART, RLENGTH)
                split(m, kv, /": */)
                gsub(/"/, "", kv[1])
                store[name "." kv[1]] = kv[2]
                line = substr(line, RSTART + RLENGTH)
            }
        }
        close(file)
    }
    BEGIN {
        parse(prevfile, prev)
        parse(ARGV[1], cur)
        printf "%-42s %14s %14s %8s\n", "benchmark", "prev", "now", "delta"
        for (key in cur) {
            if (key !~ /\.ns_per_op$/) continue
            name = key; sub(/\.ns_per_op$/, "", name)
            if (names == "") names = name; else names = names "\n" name
        }
        nn = split(names, order, "\n")
        for (i = 1; i <= nn; i++) {
            for (j = i + 1; j <= nn; j++)
                if (order[j] < order[i]) { t = order[i]; order[i] = order[j]; order[j] = t }
        }
        for (i = 1; i <= nn; i++) {
            name = order[i]
            row(name, "ns_per_op", "ns/op")
            row(name, "allocs_per_op", "allocs")
            row(name, "chips_per_sec", "chips/s")
        }
    }
    function row(name, field, unit,    p, c, d) {
        c = cur[name "." field]
        if (c == "") return
        p = prev[name "." field]
        if (p == "") { printf "%-42s %14s %14s %8s\n", name " " unit, "-", c, "new"; return }
        if (p + 0 == 0) d = "n/a"
        else d = sprintf("%+.1f%%", (c - p) / p * 100)
        printf "%-42s %14s %14s %8s\n", name " " unit, p, c, d
    }
    ' "$OUT"
fi
