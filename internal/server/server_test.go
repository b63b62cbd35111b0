package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"yieldcache"
	"yieldcache/internal/obs"
)

func postStudy(t *testing.T, url string, body string) (*http.Response, StudyResponse, ErrorResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/study", "application/json", strings.NewReader(body))
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
	} else {
		if err := dec.Decode(&fail); err != nil {
			t.Fatalf("decoding ErrorResponse (status %d): %v", resp.StatusCode, err)
		}
	}
	// Read to EOF: the handler (and its request metrics) has then
	// finished, so a following /metrics read sees this request.
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp, ok, fail
}

// A real end-to-end pass over a tiny population: the second identical
// request must come from the cache without rebuilding, and the cache
// counters must show up in /metrics.
func TestStudyCacheHitVisibleInMetrics(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"chips": 60, "seed": 2006, "include_scatter": true}`
	resp, first, _ := postStudy(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", resp.StatusCode)
	}
	if first.Cached {
		t.Error("first request reported cached")
	}
	if len(first.Scatter) != 60 {
		t.Errorf("scatter points = %d, want 60", len(first.Scatter))
	}
	if first.Regular.N != 60 || first.Horizontal.N != 60 {
		t.Errorf("breakdown N = %d/%d, want 60", first.Regular.N, first.Horizontal.N)
	}
	if len(first.RegularTotals) != 2 || len(first.HorizontalTotals) != 2 {
		t.Errorf("constraint totals rows = %d/%d, want 2 (relaxed+strict)",
			len(first.RegularTotals), len(first.HorizontalTotals))
	}

	// Identical parameters, different presentation flags: still a hit.
	resp, second, _ := postStudy(t, ts.URL, `{"chips": 60, "seed": 2006, "include_saved_configs": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d", resp.StatusCode)
	}
	if !second.Cached {
		t.Error("second identical request was not served from the cache")
	}
	if len(second.Scatter) != 0 {
		t.Error("scatter included without include_scatter")
	}
	if second.Regular.BaseTotal != first.Regular.BaseTotal {
		t.Errorf("cached breakdown differs: %d vs %d", second.Regular.BaseTotal, first.Regular.BaseTotal)
	}

	if got := reg.Counter("server_study_cache_hits_total").Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	if got := reg.Counter("server_study_cache_misses_total").Value(); got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	text := readAll(t, mresp)
	for _, want := range []string{
		"server_study_cache_hits_total 1",
		"server_study_cache_misses_total 1",
		`http_requests_total{handler="study",code="200"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// blockingBuilder returns a builder that signals entry on started and
// blocks until release is closed (or the build context ends).
func blockingBuilder(started chan<- string, release <-chan struct{}) (studyBuilder, *atomic.Int64) {
	var calls atomic.Int64
	return func(ctx context.Context, cfg yieldcache.StudyConfig) (*yieldcache.Study, error) {
		calls.Add(1)
		if started != nil {
			started <- fmt.Sprintf("%d/%d", cfg.Seed, cfg.Chips)
		}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return yieldcache.NewStudyCtx(ctx, yieldcache.StudyConfig{Chips: 20, Seed: cfg.Seed})
	}, &calls
}

func TestQueueFullShedsWith429(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: -1}) // QueueDepth < 0 → 0 after fill
	started := make(chan string, 4)
	release := make(chan struct{})
	srv.build, _ = blockingBuilder(started, release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := make(chan *http.Response, 1)
	go func() {
		resp, _ := http.Post(ts.URL+"/v1/study", "application/json",
			strings.NewReader(`{"chips": 20, "seed": 1}`))
		first <- resp
	}()
	<-started // the only worker slot is now occupied

	resp, _, fail := postStudy(t, ts.URL, `{"chips": 20, "seed": 2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%v)", resp.StatusCode, fail)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}

	close(release)
	if resp := <-first; resp.StatusCode != http.StatusOK {
		t.Errorf("first request: status %d after release", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

func TestRequestTimeoutReturns504(t *testing.T) {
	srv := New(Config{Workers: 1})
	// The real builder on a population large enough to outlive the
	// request deadline: exercises cancellation through NewStudyCtx and
	// the population build itself.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _, fail := postStudy(t, ts.URL, `{"chips": 20000, "timeout_ms": 1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%v)", resp.StatusCode, fail)
	}
	if !strings.Contains(fail.Error, "timed out") {
		t.Errorf("error = %q, want a timeout message", fail.Error)
	}
}

func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	srv := New(Config{Workers: 2})
	started := make(chan string, 1)
	release := make(chan struct{})
	builder, calls := blockingBuilder(started, release)
	srv.build = builder
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/study", "application/json",
				strings.NewReader(`{"chips": 20, "seed": 7}`))
			if err != nil {
				results <- -1
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	<-started // leader is inside the builder
	// Give the second request time to reach the coalescing path, then
	// let the build finish.
	time.Sleep(20 * time.Millisecond)
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("builder ran %d times for identical concurrent requests, want 1", got)
	}
}

func TestDrainWaitsForInflightAndShedsNew(t *testing.T) {
	srv := New(Config{Workers: 1})
	started := make(chan string, 1)
	release := make(chan struct{})
	srv.build, _ = blockingBuilder(started, release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/study", "application/json",
			strings.NewReader(`{"chips": 20, "seed": 1}`))
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-started

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()

	// Drain must not finish while the build is running.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a build in flight", err)
	case <-time.After(30 * time.Millisecond):
	}

	// New work is refused while draining...
	resp, _, _ := postStudy(t, ts.URL, `{"chips": 20, "seed": 2}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("request during drain: status %d, want 503", resp.StatusCode)
	}
	// ...and health reports it.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", hresp.StatusCode)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Errorf("Drain: %v", err)
	}
	if code := <-first; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", code)
	}
}

func TestDrainDeadlineCancelsBuilds(t *testing.T) {
	srv := New(Config{Workers: 1})
	started := make(chan string, 1)
	srv.build, _ = blockingBuilder(started, nil) // never released: only ctx ends it
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	go func() {
		resp, err := http.Post(ts.URL+"/v1/study", "application/json",
			strings.NewReader(`{"chips": 20, "seed": 1}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Errorf("Drain = %v, want context.DeadlineExceeded", err)
	}
}

func TestRequestValidation(t *testing.T) {
	srv := New(Config{Workers: 1, MaxChips: 500})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
		wantSubstr string
	}{
		{"unknown scheme", `{"chips": 10, "schemes": ["H-YAPD"]}`, "unknown scheme"},
		{"unknown constraints", `{"chips": 10, "constraints": "loose"}`, "unknown constraints"},
		{"both constraint forms", `{"chips": 10, "constraints": "strict", "custom_constraints": {"delay_sigma_k": 1, "leakage_mult": 3}}`, "mutually exclusive"},
		{"bad custom constraints", `{"chips": 10, "custom_constraints": {"delay_sigma_k": 1, "leakage_mult": 0}}`, "out of range"},
		{"too many chips", `{"chips": 501}`, "exceeds the server limit"},
		{"negative chips", `{"chips": -1}`, "must be positive"},
		{"negative timeout", `{"chips": 10, "timeout_ms": -5}`, "must be positive"},
		{"unknown field", `{"chip": 10}`, "unknown field"},
		{"malformed JSON", `{`, "decoding request"},
	}
	for _, c := range cases {
		resp, _, fail := postStudy(t, ts.URL, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
			continue
		}
		if !strings.Contains(fail.Error, c.wantSubstr) {
			t.Errorf("%s: error %q, want substring %q", c.name, fail.Error, c.wantSubstr)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/study")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/study: status %d, want 405", resp.StatusCode)
	}
}

// Equivalent requests must share a canonical key; different parameters
// must not.
func TestCanonicalKey(t *testing.T) {
	srv := New(Config{})
	key := func(body string) string {
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
	same := [][2]string{
		{`{}`, `{"seed": 2006, "chips": 2000, "constraints": "nominal"}`},
		{`{"schemes": ["Hybrid", "YAPD", "VACA"]}`, `{"schemes": ["YAPD", "VACA", "Hybrid", "YAPD"]}`},
		{`{"include_scatter": true, "timeout_ms": 5000}`, `{}`},
	}
	for _, pair := range same {
		if key(pair[0]) != key(pair[1]) {
			t.Errorf("keys differ for equivalent requests %s and %s", pair[0], pair[1])
		}
	}
	distinct := []string{
		`{}`,
		`{"seed": 7}`,
		`{"chips": 100}`,
		`{"constraints": "strict"}`,
		`{"custom_constraints": {"delay_sigma_k": 1, "leakage_mult": 3}}`,
		`{"schemes": ["YAPD"]}`,
	}
	seen := map[string]string{}
	for _, body := range distinct {
		k := key(body)
		if prev, dup := seen[k]; dup {
			t.Errorf("requests %s and %s share key %q", prev, body, k)
		}
		seen[k] = body
	}
}

// The cache evicts oldest-first at its capacity bound, counting each
// eviction.
func TestCacheEviction(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	srv := New(Config{Workers: 1, CacheEntries: 2})
	release := make(chan struct{})
	close(release)
	srv.build, _ = blockingBuilder(nil, release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for seed := 1; seed <= 3; seed++ {
		resp, _, _ := postStudy(t, ts.URL, fmt.Sprintf(`{"chips": 20, "seed": %d}`, seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
	}
	// Seed 1 was evicted; seeds 2 and 3 remain.
	if resp, res, _ := postStudy(t, ts.URL, `{"chips": 20, "seed": 3}`); resp.StatusCode != http.StatusOK || !res.Cached {
		t.Errorf("seed 3 should be cached (status %d, cached %v)", resp.StatusCode, res.Cached)
	}
	if resp, res, _ := postStudy(t, ts.URL, `{"chips": 20, "seed": 1}`); resp.StatusCode != http.StatusOK || res.Cached {
		t.Errorf("seed 1 should have been evicted (status %d, cached %v)", resp.StatusCode, res.Cached)
	}
	// Seed 1's eviction, then seed 2's when seed 1 was rebuilt.
	if got := reg.Counter("server_study_cache_evictions_total").Value(); got != 2 {
		t.Errorf("server_study_cache_evictions_total = %d, want 2", got)
	}
}

// An eviction counts under its entry's own kind, for an entry a sweep
// or a study built and for one recovered from the store.
func TestCacheEvictionCountsPerKind(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	dir := t.TempDir()
	st := openStore(t, dir)
	sweep := func(url string, vdd float64) {
		t.Helper()
		body := fmt.Sprintf(`{"chips": 20, "axes": [{"param": "vdd", "values": [%g]}]}`, vdd)
		if resp, _, fail := postSweep(t, url, body, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep vdd %g: status %d (%v)", vdd, resp.StatusCode, fail)
		}
	}
	study := func(url string) {
		t.Helper()
		if resp, _, fail := postStudy(t, url, `{"chips": 20}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("study: status %d (%v)", resp.StatusCode, fail)
		}
	}
	want := func(sweeps, studies int64) {
		t.Helper()
		if got := reg.Counter("server_sweep_cache_evictions_total").Value(); got != sweeps {
			t.Errorf("server_sweep_cache_evictions_total = %d, want %d", got, sweeps)
		}
		if got := reg.Counter("server_study_cache_evictions_total").Value(); got != studies {
			t.Errorf("server_study_cache_evictions_total = %d, want %d", got, studies)
		}
	}

	srv1 := New(Config{Workers: 1, CacheEntries: 1, Store: st})
	ts1 := httptest.NewServer(srv1.Handler())
	sweep(ts1.URL, 1.1)
	sweep(ts1.URL, 1.05) // evicts the first sweep
	want(1, 0)
	drain(t, srv1)
	ts1.Close()
	st.Close()

	srv2 := New(Config{Workers: 1, CacheEntries: 1, Store: openStore(t, dir)})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	study(ts2.URL) // evicts the recovered sweep
	want(2, 0)
	sweep(ts2.URL, 1.1) // evicts the study
	want(2, 1)
}

func TestConstraintsEndpoint(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/constraints")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Constraints []ConstraintsInfo `json:"constraints"`
		Schemes     []string          `json:"schemes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Constraints) != 3 || out.Constraints[0].Name != "nominal" {
		t.Errorf("constraints = %+v", out.Constraints)
	}
	if len(out.Schemes) != 3 {
		t.Errorf("schemes = %v", out.Schemes)
	}
}
