#!/usr/bin/env sh
# Pre-merge gate: formatting, vet, the docs gate (godoc coverage of the
# facade, README/docs flag sync and the /metrics catalogue in
# docs/API.md, see scripts/docgate), the full test
# suite under the race detector (the metrics registry, tracer and
# yieldd server must stay safe under the parallel population build),
# and the chaos-tagged storage fault-injection suite.
#
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== docs gate =="
go run ./scripts/docgate

echo "== go test -race =="
go test -race ./...

echo "== go test -race -tags chaos (storage fault injection) =="
go test -race -tags chaos ./internal/store/...

echo "check.sh: all green"
