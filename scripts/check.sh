#!/usr/bin/env sh
# Pre-merge gate: formatting, vet (also for arm64, so the non-amd64
# build of internal/sram keeps compiling), the docs gate (godoc coverage of the
# facade, README/docs flag sync, the /metrics catalogue in docs/API.md
# and no internal export reached only by its own tests, see
# scripts/docgate), the full test
# suite under the race detector (the metrics registry, tracer and
# yieldd server must stay safe under the parallel population build),
# the build, estimate and sweep tests again under the race detector at
# 1 and 4 Ps (the lock-free batch counter, the estimator's frontier and
# the delta builder's reused arena at more Ps than a 2-vCPU runner
# gives), yieldd's crash, restart, resume and golden
# store tests under the race detector at 1 and 4 Ps (each crashes or
# reopens a real File store), and the chaos-tagged storage
# fault-injection suite.
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

echo "== go vet, GOARCH=arm64 (the scalar fallback of the kernel's vector exp/log) =="
GOARCH=arm64 go vet ./...

echo "== docs gate =="
go run ./scripts/docgate

echo "== go test -race =="
go test -race ./...

echo "== go test -race -cpu 1,4 (batch loop, estimator frontier, reused sweep arena) =="
go test -race -count=1 -cpu 1,4 -run 'Build|Estimate|WorkerCount|DeltaBuilder|RunSweep' ./internal/core

echo "== go test -race -cpu 1,4 (yieldd crash, restart and resume over a File store) =="
go test -race -count=1 -cpu 1,4 -run 'Crashed|Reopen|Restart|Resume|Golden' ./internal/server

echo "== go test -race -tags chaos (storage fault injection) =="
go test -race -tags chaos ./internal/store/...

echo "check.sh: all green"
