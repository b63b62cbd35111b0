package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"yieldcache/internal/obs"
	"yieldcache/internal/store"
)

// postStudyIdem posts a study with an Idempotency-Key header.
func postStudyIdem(t *testing.T, url, body, key string) (*http.Response, StudyResponse, ErrorResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/study", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/study: %v", err)
	}
	defer resp.Body.Close()
	var ok StudyResponse
	var fail ErrorResponse
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&ok); err != nil {
			t.Fatalf("decoding StudyResponse: %v", err)
		}
	} else if err := dec.Decode(&fail); err != nil {
		t.Fatalf("decoding ErrorResponse (status %d): %v", resp.StatusCode, err)
	}
	// Read to EOF: the handler (and its request metrics) has then
	// finished, so a following /metrics read sees this request.
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp, ok, fail
}

func drain(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// waitSettled waits until srv has no build in flight. A job reads done
// just before its result enters the cache, so a test that wants the
// repeat request to hit the cache waits for this too.
func waitSettled(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.inflight)
		srv.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d builds still in flight", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// openStore opens a File store over dir, closed when the test ends.
func openStore(t *testing.T, dir string) *store.File {
	t.Helper()
	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// copyDataDir copies a File store's data directory (wal.log, results/,
// checkpoints/, spare/) into the empty directory dst. Taken while no write is
// in flight, the copy is what kill -9 would leave on disk.
func copyDataDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		to := filepath.Join(dst, strings.TrimPrefix(path, src))
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}

// recovered returns what a yieldd restarted over dir would recover: a
// copy of dir, opened and replayed, so dir's own store may stay open.
func recovered(t *testing.T, dir string) *store.Recovered {
	t.Helper()
	cp := t.TempDir()
	if err := copyDataDir(dir, cp); err != nil {
		t.Fatal(err)
	}
	rec, err := openStore(t, cp).Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return rec
}

// crashStore is a File store that copies its data directory into crash
// once, right after the first record of a job as running lands. The
// job's goroutine is inside that call and every earlier write of the
// job has returned, so the copy holds every fsynced frame and no write
// in flight: the kill -9 instant. A job writes nothing more until its
// outcome, so the copy is the disk any mid-build kill -9 leaves.
// copied is closed once the copy is taken, so a test can stop the
// server there instead of letting it finish a build nobody reads.
type crashStore struct {
	store.Store
	dir, crash string
	copied     chan struct{}

	once sync.Once
	err  error
}

func newCrashStore(t *testing.T) *crashStore {
	dir := t.TempDir()
	return &crashStore{Store: openStore(t, dir), dir: dir, crash: t.TempDir(), copied: make(chan struct{})}
}

func (c *crashStore) PutJob(rec store.JobRecord) error {
	err := c.Store.PutJob(rec)
	if err == nil && rec.State == jobRunning {
		c.once.Do(func() {
			c.err = copyDataDir(c.dir, c.crash)
			close(c.copied)
		})
	}
	return err
}

// crashAfterCopy posts body to path on a server over st and closes
// and drains that server as soon as st has taken its crash copy, so
// the build dies unfinished. It returns the job id the cut-off request
// was answered with.
func crashAfterCopy(t *testing.T, st *crashStore, path, body, idemKey string) string {
	t.Helper()
	srv := New(Config{Workers: 2, Store: st})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	answered := make(chan string, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			answered <- ""
			return
		}
		resp.Body.Close()
		answered <- resp.Header.Get("X-Job-Id")
	}()
	select {
	case <-st.copied:
	case id := <-answered:
		t.Fatalf("request for job %q answered before its job was recorded running", id)
	}
	srv.Close()
	drain(t, srv)
	if st.err != nil {
		t.Fatalf("copying the data directory at the crash instant: %v", st.err)
	}
	jobID := <-answered
	if jobID == "" {
		t.Fatal("the cut-off request carried no X-Job-Id")
	}
	return jobID
}

// A restarted server must answer a repeated study from the recovered
// result cache and still list the producing job under its original id.
func TestRestartRecoversCacheAndHistory(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	srv1 := New(Config{Workers: 2, Store: st})
	ts1 := httptest.NewServer(srv1.Handler())

	body := `{"chips": 50, "seed": 2006}`
	resp, first, _ := postStudyIdem(t, ts1.URL, body, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first build: status %d", resp.StatusCode)
	}
	jobID := resp.Header.Get("X-Job-Id")
	drain(t, srv1)
	ts1.Close()
	st.Close()

	// Restart: a fresh server over the reopened directory.
	srv2 := New(Config{Workers: 2, Store: openStore(t, dir)})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer drain(t, srv2)

	resp, second, _ := postStudyIdem(t, ts2.URL, body, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart request: status %d", resp.StatusCode)
	}
	if !second.Cached {
		t.Error("post-restart identical request rebuilt instead of using the recovered cache")
	}
	if second.Regular.BaseTotal != first.Regular.BaseTotal {
		t.Errorf("recovered result differs: base total %d vs %d",
			second.Regular.BaseTotal, first.Regular.BaseTotal)
	}
	if got := resp.Header.Get("X-Job-Id"); got != jobID {
		t.Errorf("cache hit attributed to job %q, want original %q", got, jobID)
	}

	jresp, err := http.Get(ts2.URL + "/v1/jobs/" + jobID)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s after restart: status %d", jobID, jresp.StatusCode)
	}
	var detail JobDetail
	if err := json.NewDecoder(jresp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	if detail.State != jobDone {
		t.Errorf("recovered job state %q, want done", detail.State)
	}
	if detail.QueueWaitMS < 0 {
		t.Errorf("recovered job queue wait %v ms is negative", detail.QueueWaitMS)
	}
}

// Every server opened over a store counts one recovery, and one over a
// store holding a running job counts that job resumed.
func TestReopenCountsRecoveryAndResume(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	dir := t.TempDir()
	srv1 := New(Config{Workers: 1, Store: openStore(t, dir)})
	ts1 := httptest.NewServer(srv1.Handler())
	defer ts1.Close()
	defer drain(t, srv1)
	defer close(occupyWorker(t, srv1, ts1.URL))

	// The store now holds the blocked job as running: reopen a copy.
	crash := t.TempDir()
	if err := copyDataDir(dir, crash); err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{Workers: 1, Store: openStore(t, crash)})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer drain(t, srv2)
	if got := reg.Counter("server_store_recoveries_total").Value(); got != 2 {
		t.Errorf("server_store_recoveries_total = %d, want 2", got)
	}
	if got := reg.Counter("server_jobs_resumed_total").Value(); got != 1 {
		t.Errorf("server_jobs_resumed_total = %d, want 1", got)
	}
	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if text := readAll(t, mresp); !strings.Contains(text, "server_jobs_resumed 1\n") {
		t.Errorf("/metrics missing the server_jobs_resumed 1 gauge")
	}
}

// Kill -9 mid-build: a new server over the crash-instant store state
// must resume the job under the same id, rebuild it from its seed, and
// produce tables bit-identical to an uninterrupted run.
func TestCrashedBuildResumesBitIdentical(t *testing.T) {
	const chips = 2000
	body := fmt.Sprintf(`{"chips": %d, "seed": 2006}`, chips)

	// The uninterrupted reference.
	ref := New(Config{Workers: 2})
	tsRef := httptest.NewServer(ref.Handler())
	_, want, _ := postStudyIdem(t, tsRef.URL, body, "")
	drain(t, ref)
	tsRef.Close()

	// Run the build on a store that copies its directory when it
	// records the study as running; the copy is the disk a kill -9
	// anywhere in the build leaves.
	st := newCrashStore(t)
	jobID := crashAfterCopy(t, st, "/v1/study", body, "retry-after-crash")

	srv2 := New(Config{Workers: 2, Store: openStore(t, st.crash)})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer drain(t, srv2)

	// The resumed job carries its identity and restart count.
	detail := waitFinished(t, ts2.URL, jobID)
	if detail.State != jobDone {
		t.Fatalf("resumed job finished %q (%s), want done", detail.State, detail.Error)
	}
	waitSettled(t, srv2)
	if !detail.Resumed || detail.Restarts != 1 {
		t.Errorf("resumed job reports resumed=%v restarts=%d, want true/1", detail.Resumed, detail.Restarts)
	}

	// And its result must be bit-identical to the uninterrupted build.
	resp, got, _ := postStudyIdem(t, ts2.URL, body, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetching resumed result: status %d", resp.StatusCode)
	}
	if !got.Cached {
		t.Error("resumed result not served from cache")
	}
	assertSameTables(t, got, want)

	// The idempotency key recorded before the crash replays too.
	resp, replayed, _ := postStudyIdem(t, ts2.URL, body, "retry-after-crash")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent retry after crash: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Error("idempotent retry after crash not marked as replayed")
	}
	assertSameTables(t, replayed, want)
}

// assertSameTables compares the paper tables of two study responses.
func assertSameTables(t *testing.T, got, want StudyResponse) {
	t.Helper()
	g, err := json.Marshal(struct {
		R, H             Breakdown
		RTotals, HTotals []ConstraintTotals
	}{got.Regular, got.Horizontal, got.RegularTotals, got.HorizontalTotals})
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(struct {
		R, H             Breakdown
		RTotals, HTotals []ConstraintTotals
	}{want.Regular, want.Horizontal, want.RegularTotals, want.HorizontalTotals})
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Errorf("tables differ:\n got %s\nwant %s", g, w)
	}
}

// The Idempotency-Key contract: same key + same body replays the stored
// response; same key + different body is refused with 409; keys expire
// with the result cache.
func TestIdempotencyKeyContract(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	srv := New(Config{Workers: 2, Store: openStore(t, t.TempDir()), CacheEntries: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer drain(t, srv)

	body := `{"chips": 40, "seed": 2006}`
	resp, first, _ := postStudyIdem(t, ts.URL, body, "key-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Idempotency-Replayed") == "true" {
		t.Error("first use of a key marked replayed")
	}
	jobID := resp.Header.Get("X-Job-Id")

	// Same key, same body: replayed.
	resp, second, _ := postStudyIdem(t, ts.URL, body, "key-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Error("replay not marked with Idempotency-Replayed")
	}
	if resp.Header.Get("X-Job-Id") != jobID {
		t.Errorf("replay attributed to %q, want %q", resp.Header.Get("X-Job-Id"), jobID)
	}
	if second.Regular.BaseTotal != first.Regular.BaseTotal {
		t.Error("replayed body differs from original")
	}
	if got := reg.Counter("server_idempotent_replays_total").Value(); got != 1 {
		t.Errorf("server_idempotent_replays_total = %d, want 1", got)
	}

	// Same key, different body: conflict.
	resp, _, fail := postStudyIdem(t, ts.URL, `{"chips": 41, "seed": 2006}`, "key-1")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("key reuse with different body: status %d, want 409", resp.StatusCode)
	}
	if fail.Class != "validation" {
		t.Errorf("conflict class %q, want validation", fail.Class)
	}
	if got := reg.Counter("server_idempotency_conflicts_total").Value(); got != 1 {
		t.Errorf("server_idempotency_conflicts_total = %d, want 1", got)
	}

	// A new study evicts the old result (CacheEntries: 1) and with it
	// the key binding: the key is then free for a different body.
	resp, _, _ = postStudyIdem(t, ts.URL, `{"chips": 45, "seed": 7}`, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evicting build: status %d", resp.StatusCode)
	}
	resp, _, _ = postStudyIdem(t, ts.URL, `{"chips": 46, "seed": 8}`, "key-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("key after expiry: status %d, want 200 (rebound to new body)", resp.StatusCode)
	}

	// Oversized keys are rejected outright.
	resp, _, _ = postStudyIdem(t, ts.URL, body, strings.Repeat("k", maxIdemKeyLen+1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized key: status %d, want 400", resp.StatusCode)
	}
}

// Storage failures must degrade durability, never fail requests.
func TestStoreErrorsDoNotFailRequests(t *testing.T) {
	st := openStore(t, t.TempDir())
	if err := st.Close(); err != nil { // every write now errors
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, Store: st})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer drain(t, srv)

	resp, res, _ := postStudyIdem(t, ts.URL, `{"chips": 30, "seed": 2006}`, "key-x")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("study with dead store: status %d, want 200", resp.StatusCode)
	}
	if res.Regular.N != 30 {
		t.Errorf("study with dead store returned %d chips", res.Regular.N)
	}
}

// deleteStore is a store that records the job of each DeleteCheckpoint.
type deleteStore struct {
	store.Store

	mu      sync.Mutex
	deletes []string
}

func (d *deleteStore) DeleteCheckpoint(jobID string) error {
	d.mu.Lock()
	d.deletes = append(d.deletes, jobID)
	d.mu.Unlock()
	return d.Store.DeleteCheckpoint(jobID)
}

// A finished job deletes a checkpoint only when the store may hold one
// of it: one an older server wrote before the job was resumed. A fresh
// job costs no delete. A resumed study and a resumed sweep whose store
// holds such a checkpoint ignore its bytes, rebuild to the response of
// a fresh build, and still have it deleted. The sweep's checkpoint is
// in the format sweeps once resumed from, with one config falsified, so
// a server that read it would answer different bytes.
func TestCheckpointDeletedOnlyWhenStored(t *testing.T) {
	const (
		studyBody = `{"chips": 30, "seed": 5}`
		sweepBody = `{"chips": 40, "seed": 5, "axes": [{"param": "vdd", "values": [1.1, 1.05, 1.0]}]}`
	)
	ref := New(Config{Workers: 1})
	tsRef := httptest.NewServer(ref.Handler())
	_, wantStudy, _ := postStudyIdem(t, tsRef.URL, studyBody, "")
	_, wantSweep := postRaw(t, tsRef.URL, "/v1/sweep", sweepBody, "")
	var req StudyRequest
	if err := json.Unmarshal([]byte(studyBody), &req); err != nil {
		t.Fatal(err)
	}
	p, err := ref.parseRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	sp := sweepParamsOf(t, ref, sweepBody)
	drain(t, ref)
	tsRef.Close()

	studyRec := p.record()
	studyRec.ID, studyRec.Seq, studyRec.Key, studyRec.State = "j000001", 1, p.key(), jobRunning
	sweepRec := sp.record()
	sweepRec.ID, sweepRec.Seq, sweepRec.Key, sweepRec.Kind, sweepRec.State = "j000002", 2, sp.key, jobKindSweep, jobRunning
	var done SweepResponse
	if err := json.Unmarshal(wantSweep, &done); err != nil {
		t.Fatal(err)
	}
	done.Results[0].BaseYield /= 2
	sweepCkpt, err := json.Marshal(map[string]any{"results": done.Results[:2]})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seed := openStore(t, dir)
	for _, put := range []func() error{
		func() error { return seed.PutJob(studyRec) },
		func() error { return seed.PutCheckpoint(studyRec.ID, 8, []byte("not a checkpoint")) },
		func() error { return seed.PutJob(sweepRec) },
		func() error { return seed.PutCheckpoint(sweepRec.ID, 2, sweepCkpt) },
	} {
		if err := put(); err != nil {
			t.Fatal(err)
		}
	}
	seed.Close()

	st := &deleteStore{Store: openStore(t, dir)}
	srv := New(Config{Workers: 1, Store: st})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _, _ := postStudyIdem(t, ts.URL, `{"chips": 20, "seed": 6}`, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh study: status %d", resp.StatusCode)
	}
	drain(t, srv) // the resumed jobs have finished too

	for _, id := range []string{studyRec.ID, sweepRec.ID} {
		var d JobDetail
		getJSON(t, ts.URL+"/v1/jobs/"+id, &d)
		if d.State != jobDone || d.Restarts != 1 {
			t.Errorf("resumed job %s: state %q restarts %d, want done after 1 restart", id, d.State, d.Restarts)
		}
		if _, _, err := st.Checkpoint(id); err == nil {
			t.Errorf("the resumed job %s's checkpoint is still stored", id)
		}
	}
	st.mu.Lock()
	deletes := append([]string(nil), st.deletes...)
	st.mu.Unlock()
	sort.Strings(deletes)
	if want := []string{studyRec.ID, sweepRec.ID}; !reflect.DeepEqual(deletes, want) {
		t.Errorf("DeleteCheckpoint calls %v, want only the resumed jobs %v", deletes, want)
	}

	resp, got, _ := postStudyIdem(t, ts.URL, studyBody, "")
	if resp.StatusCode != http.StatusOK || !got.Cached {
		t.Fatalf("resumed study: status %d cached %v, want its cached result", resp.StatusCode, got.Cached)
	}
	if got.Cached, got.ElapsedMS, wantStudy.ElapsedMS = false, 0, 0; !reflect.DeepEqual(got, wantStudy) {
		t.Errorf("resumed study differs from a fresh build:\n got %+v\nwant %+v", got, wantStudy)
	}
	_, gotSweep := postRaw(t, ts.URL, "/v1/sweep", sweepBody, "")
	if g, w := sweepScience(t, gotSweep, true), sweepScience(t, wantSweep, false); g != w {
		t.Errorf("resumed sweep differs from a fresh sweep:\n got %s\nwant %s", g, w)
	}
}

// sweepScience is a sweep response body without its timing and with
// its cached flag checked against cached: every other byte a resumed
// sweep answers must equal a fresh sweep's.
func sweepScience(t *testing.T, body []byte, cached bool) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m["cached"] != cached {
		t.Errorf("sweep response cached %v, want %v", m["cached"], cached)
	}
	delete(m, "cached")
	delete(m, "elapsed_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// An interrupted sweep whose persisted spec no longer decodes is still
// listed as a sweep under its id and seed, and fails when it runs.
func TestResumedSweepWithUnreadableSpecFails(t *testing.T) {
	dir := t.TempDir()
	seed := openStore(t, dir)
	rec := store.JobRecord{ID: "j000001", Seq: 1, Key: sweepKeyPrefix + "0", State: jobRunning,
		Seed: 2006, Chips: 40, ConsName: "sweep", Kind: jobKindSweep, Spec: []byte(`{"spec":`)}
	if err := seed.PutJob(rec); err != nil {
		t.Fatal(err)
	}
	seed.Close()
	srv := New(Config{Workers: 1, Store: openStore(t, dir)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	drain(t, srv)

	var d JobDetail
	getJSON(t, ts.URL+"/v1/jobs/"+rec.ID, &d)
	if d.Kind != jobKindSweep || d.State != jobFailed || d.Seed != 2006 ||
		!strings.Contains(d.Error, "sweep spec unreadable after restart") {
		t.Errorf("job: kind %q state %q seed %d error %q, want a failed sweep of seed 2006 with an unreadable spec",
			d.Kind, d.State, d.Seed, d.Error)
	}
}
