#!/usr/bin/env sh
# End-to-end smoke test for yieldd, run by CI after the unit suite:
# boot the server, wait for /healthz, run one tiny study, then verify
# the observability surface — the X-Job-Id correlation header, the
# finished job's state at /v1/jobs/{id}, a non-empty Chrome trace at
# /v1/jobs/{id}/trace, the SSE event streams (progress + terminal
# event), the runtime and server gauges read at each /metrics scrape,
# and the per-phase build histograms on /metrics. A second, store-backed boot
# then exercises the durability layer for real: Idempotency-Key replay,
# kill -9 mid-build, and a restart that must resume the interrupted job
# from its WAL record, rebuild it from its seed and finish with the same
# tables an uninterrupted build produces. The precision study's stop must match
# the one yieldsim prints for the same request.
#
# Usage: scripts/smoke_yieldd.sh [port]   (default 18080)
set -eu

cd "$(dirname "$0")/.."

PORT="${1:-18080}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
PID=""

cleanup() {
    status=$?
    [ -n "$PID" ] && kill "$PID" 2>/dev/null && wait "$PID" 2>/dev/null
    if [ $status -ne 0 ] && [ -f "$TMP/yieldd.log" ]; then
        echo "--- yieldd log ---" >&2
        cat "$TMP/yieldd.log" >&2
    fi
    rm -rf "$TMP"
    exit $status
}
trap cleanup EXIT INT TERM

fail() {
    echo "smoke_yieldd: $*" >&2
    exit 1
}

echo "== build =="
go build -o "$TMP/yieldd" ./cmd/yieldd
go build -o "$TMP/yieldsim" ./cmd/yieldsim

echo "== boot =="
"$TMP/yieldd" -addr "127.0.0.1:$PORT" -log-format json >"$TMP/yieldd.log" 2>&1 &
PID=$!

i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ $i -ge 50 ] && fail "server did not become healthy within 10s"
    kill -0 "$PID" 2>/dev/null || fail "server exited during startup"
    sleep 0.2
done
curl -sf "$BASE/healthz" | grep -q '"status": "ok"' || fail "/healthz not ok"

echo "== study =="
curl -sf -D "$TMP/headers" -o "$TMP/study.json" \
    -X POST "$BASE/v1/study" \
    -H 'Content-Type: application/json' \
    -d '{"chips": 40, "seed": 2006}' || fail "POST /v1/study failed"
grep -q '"cached": false' "$TMP/study.json" || fail "fresh study reported cached"
grep -q '"ci_low"' "$TMP/study.json" || fail "study response has no ci_low interval bound"
grep -q '"ci_high"' "$TMP/study.json" || fail "study response has no ci_high interval bound"
grep -q '"estimate"' "$TMP/study.json" || fail "study response has no final estimate block"

JOB="$(tr -d '\r' <"$TMP/headers" | awk 'tolower($1) == "x-job-id:" {print $2}')"
[ -n "$JOB" ] && echo "job: $JOB" || fail "study response carried no X-Job-Id header"

echo "== job introspection =="
curl -sf "$BASE/v1/jobs/$JOB" >"$TMP/job.json" || fail "GET /v1/jobs/$JOB failed"
grep -q '"state": "done"' "$TMP/job.json" || fail "job not done: $(cat "$TMP/job.json")"
grep -q '"chips_done": 40' "$TMP/job.json" || fail "job chips_done != 40: $(cat "$TMP/job.json")"
curl -sf "$BASE/v1/jobs" | grep -q "\"$JOB\"" || fail "job missing from /v1/jobs listing"

echo "== job trace =="
curl -sf "$BASE/v1/jobs/$JOB/trace" >"$TMP/trace.json" || fail "GET trace failed"
grep -q '"name":"build_population/pair"' "$TMP/trace.json" ||
    fail "trace has no build_population/pair span: $(cat "$TMP/trace.json")"
grep -q '"name":"queue_wait"' "$TMP/trace.json" || fail "trace has no queue_wait span"

echo "== sse job stream =="
# The job has finished, so the stream replays its state and closes on
# its own: a progress snapshot, the latest yield-estimate snapshot, and
# the terminal job_completed event.
curl -sfN -m 10 "$BASE/v1/jobs/$JOB/events" >"$TMP/stream.txt" || fail "GET job events failed"
grep -q '^event: job_progress$' "$TMP/stream.txt" ||
    fail "job stream has no progress event: $(cat "$TMP/stream.txt")"
grep -q '^event: job_estimate$' "$TMP/stream.txt" ||
    fail "job stream has no yield-estimate event: $(cat "$TMP/stream.txt")"
grep -q '^event: job_completed$' "$TMP/stream.txt" ||
    fail "job stream has no terminal event: $(cat "$TMP/stream.txt")"
grep -q '"done":40' "$TMP/stream.txt" || fail "stream progress lacks done=40"
grep -q '"ci_low"' "$TMP/stream.txt" || fail "estimate event lacks ci_low"
grep -q '"class":"ok"' "$TMP/stream.txt" || fail "terminal event lacks class ok"

echo "== job estimate endpoint =="
curl -sf "$BASE/v1/jobs/$JOB/estimate" >"$TMP/estimate.json" || fail "GET job estimate failed"
grep -q '"ci_low"' "$TMP/estimate.json" || fail "estimate endpoint has no ci_low"
grep -q '"half_width"' "$TMP/estimate.json" || fail "estimate endpoint has no half_width"

echo "== precision-targeted study =="
curl -sf -X POST "$BASE/v1/study" -H 'Content-Type: application/json' \
    -d '{"chips": 6000, "seed": 2006, "precision": {"target_ci_width": 0.05}}' \
    >"$TMP/precision.json" || fail "precision study failed"
grep -q '"early_stop": true' "$TMP/precision.json" ||
    fail "precision study did not stop early: $(head -c 400 "$TMP/precision.json")"
# The stop is a function of the request, so the service and the CLI
# stop the same request at the same chip.
SRV_STOP="$(awk '/"estimate": \{/ { e = 1 } e && /"chips":/ { gsub(/[^0-9]/, ""); print; exit }' "$TMP/precision.json")"
CLI_STOP="$("$TMP/yieldsim" -chips 6000 -seed 2006 -target-ci 0.05 |
    sed -n 's/^precision: .* reached after \([0-9]*\) of .*/\1/p')"
[ -n "$CLI_STOP" ] && [ "$SRV_STOP" = "$CLI_STOP" ] ||
    fail "precision study stopped at ${SRV_STOP:-?} chips, yieldsim at ${CLI_STOP:-?}"
echo "precision stop: $SRV_STOP chips (yieldsim agrees)"

echo "== sse firehose =="
# Tail the live firehose while a second (different-seed) study runs;
# the stream stays open, so background it and grep with retries.
curl -sN -m 10 "$BASE/v1/events?types=job_admitted,job_progress,job_completed" \
    >"$TMP/firehose.txt" 2>/dev/null &
CURL_PID=$!
sleep 0.3
curl -sf -X POST "$BASE/v1/study" -H 'Content-Type: application/json' \
    -d '{"chips": 40, "seed": 7}' >/dev/null || fail "second study failed"
i=0
until grep -q '^event: job_completed$' "$TMP/firehose.txt" 2>/dev/null; do
    i=$((i + 1))
    [ $i -ge 50 ] && fail "firehose never saw job_completed: $(cat "$TMP/firehose.txt")"
    sleep 0.2
done
kill "$CURL_PID" 2>/dev/null || true
wait "$CURL_PID" 2>/dev/null || true
grep -q '^event: job_admitted$' "$TMP/firehose.txt" || fail "firehose missing job_admitted"
if grep -q '^event: cache_hit$' "$TMP/firehose.txt"; then
    fail "type filter leaked a cache_hit event"
fi

echo "== metrics =="
curl -sf "$BASE/metrics" >"$TMP/metrics.prom" || fail "GET /metrics failed"
for g in server_workers_busy server_queue_depth server_jobs_admitted; do
    grep -q "^$g " "$TMP/metrics.prom" || fail "/metrics missing the $g gauge"
done
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/runtime/history")
[ "$CODE" = 404 ] || fail "GET /v1/runtime/history answered $CODE, want 404 (the route is gone)"
grep -q 'server_build_phase_seconds_count{phase="build_population/pair"}' "$TMP/metrics.prom" ||
    fail "/metrics missing per-phase build histogram"
grep -q 'server_queue_wait_seconds_count' "$TMP/metrics.prom" ||
    fail "/metrics missing queue-wait histogram"
grep -q 'server_requests_total{class="ok"}' "$TMP/metrics.prom" ||
    fail "/metrics missing error-taxonomy request counter"
grep -q '^runtime_goroutines ' "$TMP/metrics.prom" ||
    fail "/metrics missing the runtime gauges read at scrape"
grep -q '^build_chips_per_second ' "$TMP/metrics.prom" ||
    fail "/metrics missing the build_chips_per_second gauge"
# Estimates are per job (checked at the estimate endpoint above); a
# process-wide gauge would show whichever job published last.
if grep -q '^estimate_' "$TMP/metrics.prom"; then
    fail "/metrics carries an estimate_ series: $(grep '^estimate_' "$TMP/metrics.prom" | head -1)"
fi

echo "== structured logs =="
grep -q "\"job\":\"$JOB\"" "$TMP/yieldd.log" || fail "no JSON log line carries the job id"

echo "== sweep (scenarios/smoke.json) =="
# Watch the firehose for per-config sweep events while the smoke
# scenario runs for the first time.
curl -sN -m 10 "$BASE/v1/events?types=sweep_config,job_completed" \
    >"$TMP/sweepevents.txt" 2>/dev/null &
CURL_PID=$!
sleep 0.3
curl -sf -D "$TMP/sweep.h" -o "$TMP/sweep.json" \
    -X POST "$BASE/v1/sweep" \
    -H 'Content-Type: application/json' \
    -d @scenarios/smoke.json || fail "POST /v1/sweep failed"
grep -q '"configs": 2' "$TMP/sweep.json" || fail "smoke sweep did not resolve 2 configs"
grep -q '"delta_builds": 1' "$TMP/sweep.json" || fail "smoke sweep reports no delta build"
grep -q '"frontiers"' "$TMP/sweep.json" || fail "sweep response has no frontiers"
grep -q '"revenue_per_wafer"' "$TMP/sweep.json" || fail "sweep economics missing"
SWEEP_JOB="$(tr -d '\r' <"$TMP/sweep.h" | awk 'tolower($1) == "x-job-id:" {print $2}')"
[ -n "$SWEEP_JOB" ] || fail "sweep response carried no X-Job-Id header"
curl -sf "$BASE/v1/jobs/$SWEEP_JOB" | grep -q '"kind": "sweep"' ||
    fail "sweep job not marked kind=sweep in /v1/jobs/$SWEEP_JOB"
i=0
until grep -q '^event: sweep_config$' "$TMP/sweepevents.txt" 2>/dev/null; do
    i=$((i + 1))
    [ $i -ge 50 ] && fail "firehose never saw a sweep_config event: $(cat "$TMP/sweepevents.txt")"
    sleep 0.2
done
kill "$CURL_PID" 2>/dev/null || true
wait "$CURL_PID" 2>/dev/null || true
curl -sf -X POST "$BASE/v1/sweep" -H 'Content-Type: application/json' \
    -d @scenarios/smoke.json | grep -q '"cached": true' || fail "sweep replay not cached"

echo "== scenario corpus =="
for f in scenarios/*.json; do
    curl -sf -X POST "$BASE/v1/sweep" -H 'Content-Type: application/json' \
        -d @"$f" >"$TMP/scenario.json" || fail "scenario $f failed"
    grep -q '"frontiers"' "$TMP/scenario.json" || fail "scenario $f returned no frontiers"
    echo "scenario $f ok"
done

# --- durability: the crash-recovery path -----------------------------
# Reference tables from the ephemeral server above: the big study the
# durable server will crash out of and resume must end with these.
# The largest study the server accepts, so the build outlasts the
# polling below.
CRASH_STUDY='{"chips": 20000, "seed": 2006}'
echo "== reference build (uninterrupted) =="
curl -sf -X POST "$BASE/v1/study" -H 'Content-Type: application/json' \
    -d "$CRASH_STUDY" >"$TMP/reference.json" || fail "reference study failed"
REF_TOTALS="$(grep -o '"base_total": [0-9]*' "$TMP/reference.json")"
[ -n "$REF_TOTALS" ] || fail "reference study has no base totals"

kill "$PID" 2>/dev/null && wait "$PID" 2>/dev/null
PID=""

echo "== durable boot (-store file) =="
DATA="$TMP/data"
start_durable() {
    "$TMP/yieldd" -addr "127.0.0.1:$PORT" -log-format json \
        -store file -data-dir "$DATA" \
        >>"$TMP/yieldd.log" 2>&1 &
    PID=$!
    i=0
    until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ $i -ge 50 ] && fail "durable server did not become healthy within 10s"
        kill -0 "$PID" 2>/dev/null || fail "durable server exited during startup"
        sleep 0.2
    done
}
start_durable

echo "== idempotency replay =="
curl -sf -D "$TMP/idem1.h" -X POST "$BASE/v1/study" \
    -H 'Content-Type: application/json' -H 'Idempotency-Key: smoke-key' \
    -d '{"chips": 40, "seed": 2006}' >/dev/null || fail "idempotent study failed"
curl -sf -D "$TMP/idem2.h" -X POST "$BASE/v1/study" \
    -H 'Content-Type: application/json' -H 'Idempotency-Key: smoke-key' \
    -d '{"chips": 40, "seed": 2006}' >/dev/null || fail "idempotent retry failed"
tr -d '\r' <"$TMP/idem2.h" | grep -qi '^idempotency-replayed: true' ||
    fail "idempotent retry not replayed"
CONFLICT=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/study" \
    -H 'Content-Type: application/json' -H 'Idempotency-Key: smoke-key' \
    -d '{"chips": 41, "seed": 2006}')
[ "$CONFLICT" = "409" ] || fail "key reuse with different body returned $CONFLICT, want 409"

echo "== kill -9 mid-build =="
curl -s -X POST "$BASE/v1/study" -H 'Content-Type: application/json' \
    -d "$CRASH_STUDY" >/dev/null 2>&1 &
# The crash study is the newest job in the listing once admitted. A
# job writes no checkpoint, so once it runs, a kill -9 leaves the disk
# that one anywhere later in its build would leave.
i=0
CRASH_JOB=""
until [ -n "$CRASH_JOB" ] &&
    curl -sf "$BASE/v1/jobs/$CRASH_JOB" 2>/dev/null | grep -q '"state": "running"'; do
    i=$((i + 1))
    [ $i -ge 500 ] && fail "the crash study was not running within 10s of posting it"
    sleep 0.02
    CRASH_JOB="$(curl -sf "$BASE/v1/jobs" 2>/dev/null | awk -F'"' '/"id":/ {print $4; exit}')"
done
kill -9 "$PID" 2>/dev/null
wait "$PID" 2>/dev/null || true
PID=""
echo "killed mid-build; job $CRASH_JOB running"

echo "== restart and resume =="
start_durable
i=0
until curl -sf "$BASE/v1/jobs/$CRASH_JOB" 2>/dev/null | grep -q '"state": "done"'; do
    i=$((i + 1))
    [ $i -ge 150 ] && fail "job $CRASH_JOB did not finish after restart: $(curl -s "$BASE/v1/jobs/$CRASH_JOB")"
    sleep 0.2
done
curl -sf "$BASE/v1/jobs/$CRASH_JOB" >"$TMP/resumed.json"
grep -q '"resumed": true' "$TMP/resumed.json" || fail "job not marked resumed: $(cat "$TMP/resumed.json")"
grep -q '"restarts": 1' "$TMP/resumed.json" || fail "job restarts != 1: $(cat "$TMP/resumed.json")"
grep -q "job resumed from store" "$TMP/yieldd.log" || fail "restart logged no resume"

echo "== resumed tables match the uninterrupted build =="
curl -sf -X POST "$BASE/v1/study" -H 'Content-Type: application/json' \
    -d "$CRASH_STUDY" >"$TMP/resumed_study.json" || fail "post-resume study failed"
grep -q '"cached": true' "$TMP/resumed_study.json" || fail "resumed result not cached"
GOT_TOTALS="$(grep -o '"base_total": [0-9]*' "$TMP/resumed_study.json")"
[ "$GOT_TOTALS" = "$REF_TOTALS" ] ||
    fail "resumed tables differ from reference: got [$GOT_TOTALS] want [$REF_TOTALS]"

echo "smoke_yieldd: all green"
