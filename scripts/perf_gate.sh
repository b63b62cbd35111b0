#!/usr/bin/env sh
# Paired perf gate: the work tree against a base revision on the same
# machine, so no baseline is stored. It builds both trees' root test
# binaries once (the base in a temporary git worktree outside the
# repository), runs the pair-build, sampling and kernel benchmarks from
# each in 10 pairs, alternating which side runs first, and fails via
# scripts/perfgate when a change median throughput is more than 10%
# below the base's or a benchmark the base ran is missing.
#
# Usage: scripts/perf_gate.sh [base-rev]   (default HEAD^)
set -eu

cd "$(dirname "$0")/.."
REPO=$(pwd)
BASE=$(git rev-parse --verify "${1:-HEAD^}^{commit}")
TMP=$(mktemp -d)
trap 'git worktree remove --force "$TMP/base" 2>/dev/null || true; rm -rf "$TMP"; git worktree prune' EXIT
trap 'exit 1' INT TERM

git worktree add --quiet --detach "$TMP/base" "$BASE"
(cd "$TMP/base" && go test -c -o "$TMP/parent.test" .)
go test -c -o "$TMP/change.test" .

# run SIDE DIR: one run of the gated benchmarks from DIR, appended to
# $TMP/SIDE.txt, whose tail is shown if the binary fails.
run() {
    (cd "$2" && "$TMP/$1.test" -test.run '^$' -test.timeout 10m \
        -test.bench '^(BenchmarkPopulationBuildPair|BenchmarkSample|BenchmarkKernelPair)$') \
        >> "$TMP/$1.txt" || { tail -n 20 "$TMP/$1.txt" >&2; exit 1; }
}

for i in 1 2 3 4 5 6 7 8 9 10; do
    echo "perf_gate: pair $i of 10 against $BASE"
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$TMP/base"; run change "$REPO"
    else
        run change "$REPO"; run parent "$TMP/base"
    fi
done
go run ./scripts/perfgate "$TMP/parent.txt" "$TMP/change.txt"
