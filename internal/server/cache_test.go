package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"yieldcache"
	"yieldcache/internal/store"
)

// refStudyBody encodes a study hit the way the server did before hit
// bodies were memoized: a filtered shallow copy of the cached value,
// indented. Memoized hits must match it byte for byte.
func refStudyBody(t *testing.T, res *StudyResponse, scatter, saved bool) []byte {
	t.Helper()
	out := *res
	out.Cached = true
	if !scatter {
		out.Scatter = nil
	}
	if !saved {
		out.SavedConfigs = nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refSweepBody is refStudyBody for sweeps: a copy of the cached value
// with per-config economics when econ is set, indented.
func refSweepBody(t *testing.T, res *SweepResponse, econ *sweepEconParams) []byte {
	t.Helper()
	out := *res
	out.Cached = true
	if econ != nil {
		rows := make([]SweepConfigResult, len(res.Results))
		copy(rows, res.Results)
		for i := range rows {
			rows[i].Economics = sweepEconomicsRow(rows[i], econ)
		}
		out.Results = rows
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postRaw posts body to path and returns the response with its raw
// body bytes, read to EOF.
func postRaw(t *testing.T, url, path, body, idemKey string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s response: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s %s: status %d: %s", path, body, resp.StatusCode, raw)
	}
	return resp, raw
}

// entryFor returns the cache entry under key.
func entryFor(t *testing.T, srv *Server, key string) *cacheEntry {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	e := srv.cache[key]
	if e == nil {
		t.Fatalf("key %q not cached", key)
	}
	return e
}

// memoLen is how many hit bodies e holds.
func memoLen(e *cacheEntry) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.memo)
}

func studyKeyOf(t *testing.T, srv *Server, body string) string {
	t.Helper()
	var req StudyRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	p, err := srv.parseRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	return p.key()
}

func sweepParamsOf(t testing.TB, srv *Server, body string) sweepParams {
	t.Helper()
	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	sp, err := srv.parseSweepRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// checkHitHeaders asserts a hit carries exactly the result headers —
// the JSON content type, the producing job's id and, for replays, the
// replay flag — and no Content-Length on a body too large to buffer.
func checkHitHeaders(t *testing.T, resp *http.Response, body []byte, jobID string, extra ...string) {
	t.Helper()
	allowed := map[string]bool{"Content-Type": true, "X-Job-Id": true, "Date": true}
	for _, h := range extra {
		allowed[h] = true
	}
	for h := range resp.Header {
		if !allowed[h] {
			t.Errorf("hit carries unexpected header %s: %q", h, resp.Header.Get(h))
		}
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if got := resp.Header.Get("X-Job-Id"); got != jobID {
		t.Errorf("X-Job-Id = %q, want %q", got, jobID)
	}
	if len(body) > 4096 && resp.ContentLength != -1 {
		t.Errorf("a %d-byte hit has Content-Length %d; hits stream like encoded bodies", len(body), resp.ContentLength)
	}
}

// Every study presentation variant — the four include_* combinations —
// is served from the memo with exactly the bytes the encoder produces
// for the cached value, on its first hit and on repeats.
func TestStudyHitBodiesMatchReference(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	base := `{"chips": 60, "seed": 2006}`
	resp, _ := postRaw(t, ts.URL, "/v1/study", base, "")
	jobID := resp.Header.Get("X-Job-Id")
	e := entryFor(t, srv, studyKeyOf(t, srv, base))

	for _, v := range []struct{ scatter, saved bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		body := fmt.Sprintf(`{"chips": 60, "seed": 2006, "include_scatter": %t, "include_saved_configs": %t}`,
			v.scatter, v.saved)
		want := refStudyBody(t, e.val.(*StudyResponse), v.scatter, v.saved)
		for hit := 1; hit <= 2; hit++ {
			resp, got := postRaw(t, ts.URL, "/v1/study", body, "")
			if !bytes.Equal(got, want) {
				t.Errorf("scatter=%t saved=%t hit %d: body differs from the reference encoding (%d vs %d bytes)",
					v.scatter, v.saved, hit, len(got), len(want))
			}
			checkHitHeaders(t, resp, got, jobID)
		}
	}
	if n := memoLen(e); n != 4 {
		t.Errorf("memo holds %d study variants, want 4", n)
	}
}

// Sweep hits match the reference with and without economics, and a
// sixth distinct economics variant — past the per-entry bound — is
// still encoded correctly, just not kept.
func TestSweepHitBodiesMatchReference(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	grid := `"chips": 40, "seed": 2006, "axes": [{"param": "vdd", "values": [1.1, 1.05]}]`
	plain := "{" + grid + "}"
	resp, _ := postRaw(t, ts.URL, "/v1/sweep", plain, "")
	jobID := resp.Header.Get("X-Job-Id")
	sp := sweepParamsOf(t, srv, plain)
	e := entryFor(t, srv, sp.key)

	bodies := []string{plain}
	for i := 1; i <= 5; i++ {
		bodies = append(bodies, fmt.Sprintf(`{%s, "economics": {"wafer_cost": %d}}`, grid, 4000+100*i))
	}
	for round := 1; round <= 2; round++ {
		for i, body := range bodies {
			want := refSweepBody(t, e.val.(*SweepResponse), sweepParamsOf(t, srv, body).econ)
			resp, got := postRaw(t, ts.URL, "/v1/sweep", body, "")
			if !bytes.Equal(got, want) {
				t.Errorf("round %d variant %d: body differs from the reference encoding (%d vs %d bytes)",
					round, i+1, len(got), len(want))
			}
			checkHitHeaders(t, resp, got, jobID)
		}
	}
	if n := memoLen(e); n != maxHitVariants {
		t.Errorf("memo holds %d sweep variants, want the bound %d", n, maxHitVariants)
	}
}

// An idempotent replay after the File store is reopened serves the
// recovered value's reference bytes; recovery itself encodes nothing.
func TestIdempotentReplayAfterReopenMatchesReference(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Workers: 2, Store: st1})
	ts1 := httptest.NewServer(srv1.Handler())
	study := `{"chips": 60, "seed": 7, "include_scatter": true, "include_saved_configs": true}`
	sweep := `{"chips": 40, "seed": 7, "economics": {}}`
	rs, _ := postRaw(t, ts1.URL, "/v1/study", study, "study-key")
	rw, _ := postRaw(t, ts1.URL, "/v1/sweep", sweep, "sweep-key")
	studyJob, sweepJob := rs.Header.Get("X-Job-Id"), rw.Header.Get("X-Job-Id")
	drain(t, srv1)
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := New(Config{Workers: 2, Store: st2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer drain(t, srv2)

	es := entryFor(t, srv2, studyKeyOf(t, srv2, study))
	sp := sweepParamsOf(t, srv2, sweep)
	ew := entryFor(t, srv2, sp.key)
	if memoLen(es) != 0 || memoLen(ew) != 0 {
		t.Error("store recovery encoded hit bodies; it must restore values only")
	}

	resp, got := postRaw(t, ts2.URL, "/v1/study", study, "study-key")
	if resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Error("study was not replayed")
	}
	if want := refStudyBody(t, es.val.(*StudyResponse), true, true); !bytes.Equal(got, want) {
		t.Errorf("replayed study differs from the reference encoding (%d vs %d bytes)", len(got), len(want))
	}
	checkHitHeaders(t, resp, got, studyJob, "Idempotency-Replayed")

	resp, got = postRaw(t, ts2.URL, "/v1/sweep", sweep, "sweep-key")
	if resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Error("sweep was not replayed")
	}
	if want := refSweepBody(t, ew.val.(*SweepResponse), sp.econ); !bytes.Equal(got, want) {
		t.Errorf("replayed sweep differs from the reference encoding (%d vs %d bytes)", len(got), len(want))
	}
	checkHitHeaders(t, resp, got, sweepJob, "Idempotency-Replayed")
}

// A key evicted and rebuilt gets a new entry whose hits carry the new
// build's bytes, never the evicted entry's memo.
func TestEvictedKeyRebuiltGetsFreshBytes(t *testing.T) {
	srv := New(Config{Workers: 2, CacheEntries: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	a := `{"chips": 40, "seed": 11, "include_scatter": true}`
	b := `{"chips": 40, "seed": 12}`
	key := studyKeyOf(t, srv, a)
	postRaw(t, ts.URL, "/v1/study", a, "")
	_, oldHit := postRaw(t, ts.URL, "/v1/study", a, "")
	old := entryFor(t, srv, key)

	postRaw(t, ts.URL, "/v1/study", b, "") // evicts a
	_, rebuilt := postRaw(t, ts.URL, "/v1/study", a, "")
	var first StudyResponse
	if err := json.Unmarshal(rebuilt, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("evicted key was served from the cache")
	}
	fresh := entryFor(t, srv, key)
	if fresh == old {
		t.Fatal("rebuilt key reuses the evicted cache entry")
	}
	if memoLen(fresh) != 0 {
		t.Error("rebuilt entry starts with memoized bodies")
	}

	_, got := postRaw(t, ts.URL, "/v1/study", a, "")
	if want := refStudyBody(t, fresh.val.(*StudyResponse), true, false); !bytes.Equal(got, want) {
		t.Errorf("hit after rebuild differs from the reference encoding of the new entry")
	}
	if fresh.val.(*StudyResponse).ElapsedMS != old.val.(*StudyResponse).ElapsedMS && bytes.Equal(got, oldHit) {
		t.Error("hit after rebuild replays the evicted entry's bytes")
	}
}

// Eight simultaneous first hits on one variant all get the same,
// correct body, and the entry keeps one copy of it.
func TestConcurrentFirstHitsShareOneBody(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"chips": 60, "seed": 2006, "include_scatter": true, "include_saved_configs": true}`
	postRaw(t, ts.URL, "/v1/study", body, "")
	e := entryFor(t, srv, studyKeyOf(t, srv, body))

	const clients = 8
	got := make([][]byte, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/study", strings.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			got[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	close(start)
	wg.Wait()

	want := refStudyBody(t, e.val.(*StudyResponse), true, true)
	for i, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("client %d: body differs from the reference encoding (%d vs %d bytes)", i, len(b), len(want))
		}
	}
	if n := memoLen(e); n != 1 {
		t.Errorf("memo holds %d bodies after one variant's hits, want 1", n)
	}
}

// discardWriter is an http.ResponseWriter that counts and drops the
// body, so an allocation budget sees only what the handler allocates.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// A repeat hit on a paper-scale study with scatter and saved configs
// writes stored bytes: it allocates well under one body per request
// (the body alone is about 250 KB).
func TestStudyHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is pinned by the non-race run")
	}
	srv := New(Config{Workers: 2})
	defer srv.Close()
	h := srv.Handler()
	body := `{"chips": 2000, "seed": 2006, "include_scatter": true, "include_saved_configs": true}`
	serve := func() *discardWriter {
		w := &discardWriter{h: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/study", strings.NewReader(body)))
		return w
	}
	serve() // build
	serve() // first hit fills the memo

	const hits = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var last *discardWriter
	for i := 0; i < hits; i++ {
		last = serve()
	}
	runtime.ReadMemStats(&after)
	if last.code != http.StatusOK || last.n < 200<<10 {
		t.Fatalf("hit: status %d, %d body bytes; want 200 and the full scatter body", last.code, last.n)
	}
	perHit := float64(after.TotalAlloc-before.TotalAlloc) / hits
	t.Logf("a repeat hit allocates %.0f bytes on average", perHit)
	if perHit > 64<<10 {
		t.Errorf("a repeat hit allocates %.0f bytes on average, budget is %d", perHit, 64<<10)
	}
}

// A small body naming two 1024-value axes resolves to 2^20 configs. The
// server must refuse it from the count alone, without planning the
// grid.
func TestSweepConfigCapCheckedBeforePlanning(t *testing.T) {
	vals := func(base float64) string {
		parts := make([]string, 1024)
		for i := range parts {
			parts[i] = fmt.Sprintf("%.5g", base+float64(i)*1e-5)
		}
		return strings.Join(parts, ",")
	}
	body := `{"chips": 40, "axes": [{"param": "vdd", "values": [` + vals(1.0) +
		`]}, {"param": "vt_nominal", "values": [` + vals(0.3) + `]}]}`
	const msg = "sweep resolves to 1048576 configs, exceeding the server limit 256"

	srv := New(Config{Workers: 1})
	defer srv.Close()
	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := srv.parseSweepRequest(&req)
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != msg {
		t.Fatalf("parse error = %v, want %q", err, msg)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("refusing the sweep allocated %d bytes; it must not plan the grid", alloc)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _, fail := postSweep(t, ts.URL, body, "")
	if resp.StatusCode != http.StatusBadRequest || fail.Error != msg {
		t.Errorf("POST: status %d, error %q; want 400 %q", resp.StatusCode, fail.Error, msg)
	}
}

func TestSweepConfigCount(t *testing.T) {
	long := make([]float64, 1<<16)
	for _, tc := range []struct {
		name string
		spec yieldcache.SweepSpec
		n    int
		ok   bool
	}{
		{"defaults", yieldcache.SweepSpec{}, 1, true},
		{"grid", yieldcache.SweepSpec{
			Axes:        []yieldcache.TechAxis{{Param: "vdd", Values: []float64{1, 2, 3}}, {Param: "alpha", Values: []float64{1, 2}}},
			Constraints: make([]yieldcache.Constraints, 2),
			Geometries:  make([]yieldcache.CacheGeometry, 2),
		}, 24, true},
		{"empty axis", yieldcache.SweepSpec{Axes: []yieldcache.TechAxis{{Param: "vdd"}}}, 0, true},
		{"overflow", yieldcache.SweepSpec{Axes: []yieldcache.TechAxis{
			{Param: "vdd", Values: long}, {Param: "alpha", Values: long},
			{Param: "vt_nominal", Values: long}, {Param: "sigma_vt", Values: long},
		}}, 0, false},
	} {
		n, ok := sweepConfigCount(tc.spec)
		if n != tc.n || ok != tc.ok {
			t.Errorf("%s: sweepConfigCount = %d, %t; want %d, %t", tc.name, n, ok, tc.n, tc.ok)
		}
	}
}
