#!/usr/bin/env bash
# Builds the yieldd end-to-end benchmark from source and runs it with the
# given arguments (see README.md), e.g.
#
#   bash bench/run.sh --workload study-hot --seed 1 --seconds 20 --trace 0
#
# The benchmark is the package ./bench of the repository's module, and it
# runs from the root of the checkout. Every build and temporary file stays
# under .bench_build/ there, and run files and traces land in bench/out/.
# Without the module's go.mod and sources the build fails, so the script
# fails when only the bench/ directory is present.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
if [ ! -f "$root/go.mod" ]; then
    echo "run.sh: no go.mod at $root; the benchmark builds the repository's module" >&2
    exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOWORK=off
unset GOFLAGS

cd "$root"
go build -o "$build/yieldbench" ./bench
exec "$build/yieldbench" "$@"
