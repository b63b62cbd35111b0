package main

import (
	"context"
	"strings"
	"testing"
)

// TestFailedStepIsNotReplayed: a server error on a traced study-durable
// step counts as failed and is not replayed, and a reply without an
// estimate makes the replay return an error rather than panic.
func TestFailedStepIsNotReplayed(t *testing.T) {
	w := &durableWorkload{seed: 1}
	r := &runner{w: w, tr: newTracer(), res: runFile{Metrics: map[string]metricValue{}}}
	bad := reply{status: 500, body: []byte(`{"error":"internal error"}`)}
	if r.record(0, []reply{bad}, true) {
		t.Error("record reported a 500 reply as ok")
	}
	if r.attempted != 1 || r.failed != 1 || len(r.latency) != 0 {
		t.Errorf("attempted %d, failed %d, %d latencies; want 1, 1, 0", r.attempted, r.failed, len(r.latency))
	}
	err := w.replay(context.Background(), r, 0, 0, []reply{bad})
	if err == nil || !strings.Contains(err.Error(), "no estimate") {
		t.Errorf("replaying a reply without an estimate: err = %v", err)
	}
}
