package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"yieldcache"
	"yieldcache/internal/obs"
)

// waitCounter polls a registry counter until it reaches want.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter(name).Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, reg.Counter(name).Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// occupyWorker starts a blocked study on a one-worker server so later
// requests queue behind it; closing the returned channel releases it.
func occupyWorker(t *testing.T, srv *Server, url string) chan struct{} {
	t.Helper()
	started := make(chan string, 1)
	release := make(chan struct{})
	srv.build, _ = blockingBuilder(started, release)
	go func() {
		resp, err := http.Post(url+"/v1/study", "application/json", strings.NewReader(`{"chips": 20, "seed": 1}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	return release
}

// A build that fails leaves nothing for its Idempotency-Keys to replay,
// so the keys must expire with it — in memory and in the store — rather
// than pile up until the next restart.
func TestFailedBuildExpiresIdempotencyKeys(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer srv.Close()
	srv.build = func(context.Context, yieldcache.StudyConfig) (*yieldcache.Study, error) {
		return nil, errors.New("injected build failure")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 1; i <= 5; i++ {
		resp, _, fail := postStudyIdem(t, ts.URL, fmt.Sprintf(`{"chips": 20, "seed": %d}`, i), fmt.Sprintf("key-%d", i))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("build %d: status %d (%v), want 500", i, resp.StatusCode, fail)
		}
	}
	checkNoIdem(t, srv, dir, "after 5 failed builds")
}

// With the cache off a successful build keeps nothing either, so its
// Idempotency-Keys expire with it the same way.
func TestUncachedBuildExpiresIdempotencyKeys(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{Workers: 1, Store: openStore(t, dir), CacheEntries: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 1; i <= 5; i++ {
		resp, res, fail := postStudyIdem(t, ts.URL, fmt.Sprintf(`{"chips": 20, "seed": %d}`, i), fmt.Sprintf("key-%d", i))
		if resp.StatusCode != http.StatusOK || res.Cached {
			t.Fatalf("build %d: status %d cached %v (%v), want 200 uncached", i, resp.StatusCode, res.Cached, fail)
		}
	}
	checkNoIdem(t, srv, dir, "after 5 uncached builds")
}

// checkNoIdem fails unless srv holds no idempotency record in memory
// and a restart over its data directory dir would recover none.
func checkNoIdem(t *testing.T, srv *Server, dir, when string) {
	t.Helper()
	srv.mu.Lock()
	idem, byKey := len(srv.idem), len(srv.idemByKey)
	srv.mu.Unlock()
	if idem != 0 || byKey != 0 {
		t.Errorf("%s: %d idempotency records, %d key bindings in memory, want 0", when, idem, byKey)
	}
	if rec := recovered(t, dir); len(rec.Idem) != 0 {
		t.Errorf("%s: %d idempotency records in the store, want 0", when, len(rec.Idem))
	}
}

// A finished sweep counts progress in configs, and must still do so
// when a restarted server restores it from the store.
func TestFinishedSweepProgressSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	srv1 := New(Config{Workers: 2, Store: st})
	ts1 := httptest.NewServer(srv1.Handler())
	resp, _, fail := postSweep(t, ts1.URL, `{"chips": 60, "axes": [{"param": "vdd", "values": [1.1, 1.05]}]}`, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d (%v)", resp.StatusCode, fail)
	}
	id := resp.Header.Get("X-Job-Id")
	check := func(url, when string) {
		t.Helper()
		var d JobDetail
		if r := getJSON(t, url+"/v1/jobs/"+id, &d); r.StatusCode != http.StatusOK {
			t.Fatalf("%s: GET /v1/jobs/%s: status %d", when, id, r.StatusCode)
		}
		if d.Kind != jobKindSweep || d.State != jobDone || d.ChipsDone != 2 || d.ChipsTotal != 2 {
			t.Errorf("%s: kind %q state %q progress %d/%d, want sweep done 2/2",
				when, d.Kind, d.State, d.ChipsDone, d.ChipsTotal)
		}
	}
	check(ts1.URL, "before restart")
	drain(t, srv1)
	ts1.Close()
	st.Close()

	srv2 := New(Config{Workers: 2, Store: openStore(t, dir)})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	check(ts2.URL, "after restart")
}

// With the only worker slot held and no queue, a sweep is shed like a
// study: 429, Retry-After, the refused job's id, the sweep shed counter
// and a failed job of kind sweep.
func TestSweepShedWhenQueueFull(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	srv := New(Config{Workers: 1, QueueDepth: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	release := occupyWorker(t, srv, ts.URL)
	defer close(release)

	resp, _, fail := postSweep(t, ts.URL, `{"chips": 20}`, "")
	if resp.StatusCode != http.StatusTooManyRequests || fail.Class != "shed" {
		t.Fatalf("status %d class %q, want 429 shed", resp.StatusCode, fail.Class)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	id := resp.Header.Get("X-Job-Id")
	if id == "" {
		t.Fatal("429 without X-Job-Id")
	}
	if got := reg.Counter("server_sweep_shed_total").Value(); got != 1 {
		t.Errorf("server_sweep_shed_total = %d, want 1", got)
	}
	var d JobDetail
	getJSON(t, ts.URL+"/v1/jobs/"+id, &d)
	if d.Kind != jobKindSweep || d.State != jobFailed || d.Class != "shed" {
		t.Errorf("shed sweep job: kind %q state %q class %q, want sweep failed shed", d.Kind, d.State, d.Class)
	}
}

// Two identical sweeps admitted while a study holds the worker share one
// evaluation and receive the same bytes.
func TestConcurrentIdenticalSweepsCoalesce(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	release := occupyWorker(t, srv, ts.URL)

	const body = `{"chips": 20, "axes": [{"param": "vdd", "values": [1.1, 1.05]}]}`
	type reply struct {
		code int
		raw  []byte
	}
	replies := make(chan reply, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			replies <- reply{code: -1}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		replies <- reply{resp.StatusCode, buf.Bytes()}
	}
	go post()
	waitCounter(t, reg, "server_sweep_cache_misses_total", 1)
	go post()
	waitCounter(t, reg, "server_sweep_coalesced_total", 1)
	close(release)

	a, b := <-replies, <-replies
	if a.code != http.StatusOK || b.code != http.StatusOK {
		t.Fatalf("statuses %d and %d, want 200", a.code, b.code)
	}
	if !bytes.Equal(a.raw, b.raw) {
		t.Error("coalesced sweeps received different bodies")
	}
	if got := reg.Counter("server_sweep_coalesced_total").Value(); got != 1 {
		t.Errorf("server_sweep_coalesced_total = %d, want 1", got)
	}
}

// A sweep whose deadline passes while it waits for the worker gets 504
// with the timeout class, and the sweep timeout counter moves.
func TestSweepTimeoutReturns504(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	release := occupyWorker(t, srv, ts.URL)
	defer close(release)

	resp, _, fail := postSweep(t, ts.URL, `{"chips": 20, "timeout_ms": 1}`, "")
	if resp.StatusCode != http.StatusGatewayTimeout || fail.Class != "timeout" {
		t.Fatalf("status %d class %q, want 504 timeout", resp.StatusCode, fail.Class)
	}
	if !strings.HasPrefix(fail.Error, "sweep timed out: ") {
		t.Errorf("error = %q, want a sweep timeout message", fail.Error)
	}
	if resp.Header.Get("X-Job-Id") == "" {
		t.Error("504 without X-Job-Id")
	}
	if got := reg.Counter("server_sweep_timeouts_total").Value(); got != 1 {
		t.Errorf("server_sweep_timeouts_total = %d, want 1", got)
	}
}
