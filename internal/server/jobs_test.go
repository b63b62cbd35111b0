package server

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"yieldcache"
	"yieldcache/internal/obs"
)

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// Two concurrent builds must produce disjoint per-job traces: each
// job's trace contains the spans of its own build and none of the
// other's. This is the regression test for the process-global tracer
// interleaving that scopes exist to fix.
func TestConcurrentJobTracesIsolated(t *testing.T) {
	srv := New(Config{Workers: 2})
	started := make(chan string, 2)
	release := make(chan struct{})
	srv.build = func(ctx context.Context, cfg yieldcache.StudyConfig) (*yieldcache.Study, error) {
		// Emit a span named after the seed into whatever tracer the
		// context routes to — isolation means it lands in this job's
		// trace only.
		sp := obs.StartSpanCtx(ctx, fmt.Sprintf("build_seed_%d", cfg.Seed))
		started <- fmt.Sprint(cfg.Seed)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		sp.End()
		return yieldcache.NewStudyCtx(ctx, yieldcache.StudyConfig{Chips: 20, Seed: cfg.Seed})
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	jobIDs := make(chan string, 2)
	var wg sync.WaitGroup
	for _, seed := range []int{1, 2} {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/study", "application/json",
				strings.NewReader(fmt.Sprintf(`{"chips": 20, "seed": %d}`, seed)))
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("seed %d: status %d", seed, resp.StatusCode)
				return
			}
			jobIDs <- resp.Header.Get("X-Job-Id") + "=" + fmt.Sprint(seed)
		}(seed)
	}
	<-started
	<-started // both builds are in flight simultaneously
	close(release)
	wg.Wait()
	close(jobIDs)

	for tagged := range jobIDs {
		id, seed, _ := strings.Cut(tagged, "=")
		if id == "" {
			t.Fatal("study response missing X-Job-Id header")
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		trace := readAll(t, resp)
		resp.Body.Close()
		own := fmt.Sprintf(`"name":"build_seed_%s"`, seed)
		other := fmt.Sprintf(`"name":"build_seed_%d"`, 3-mustInt(t, seed))
		if !strings.Contains(trace, own) {
			t.Errorf("job %s trace missing its own span %s:\n%s", id, own, trace)
		}
		if strings.Contains(trace, other) {
			t.Errorf("job %s trace contains the concurrent job's span %s:\n%s", id, other, trace)
		}
		if !strings.Contains(trace, `"name":"queue_wait"`) {
			t.Errorf("job %s trace missing the queue_wait span", id)
		}
	}
}

func mustInt(t *testing.T, s string) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscan(s, &n); err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return n
}

// A running job must be observable live: /v1/jobs/{id} reports state
// "running" with chips_done advancing monotonically, and after the
// build state "done" with chips_done == chips_total.
func TestJobLiveProgress(t *testing.T) {
	const total = 3
	srv := New(Config{Workers: 1})
	step := make(chan struct{}) // one receive per chip
	entered := make(chan string, 1)
	srv.build = func(ctx context.Context, cfg yieldcache.StudyConfig) (*yieldcache.Study, error) {
		sc := obs.ScopeFrom(ctx)
		// Shadow the scope for the real inner build so its own progress
		// accounting does not overwrite the staged counts under test.
		inner := obs.WithScope(ctx, nil)
		if sc == nil {
			t.Error("build context carries no telemetry scope")
			return yieldcache.NewStudyCtx(inner, yieldcache.StudyConfig{Chips: 20, Seed: cfg.Seed})
		}
		entered <- sc.ID
		for i := 0; i < total; i++ {
			select {
			case <-step:
				sc.AddProgress(1)
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		study, err := yieldcache.NewStudyCtx(inner, yieldcache.StudyConfig{Chips: 20, Seed: cfg.Seed})
		sc.SetProgressTotal(total)
		return study, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	respCh := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/study", "application/json",
			strings.NewReader(`{"chips": 20, "seed": 5}`))
		if err != nil {
			respCh <- -1
			return
		}
		resp.Body.Close()
		respCh <- resp.StatusCode
	}()
	id := <-entered

	poll := func() JobDetail {
		t.Helper()
		var d JobDetail
		if resp := getJSON(t, ts.URL+"/v1/jobs/"+id, &d); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job: status %d", resp.StatusCode)
		}
		return d
	}

	var last int64
	for i := 0; i < total; i++ {
		d := poll()
		if d.State != "running" {
			t.Errorf("step %d: state %q, want running", i, d.State)
		}
		if d.ChipsDone < last || d.ChipsDone > total {
			t.Errorf("step %d: chips_done %d out of order (last %d)", i, d.ChipsDone, last)
		}
		last = d.ChipsDone
		step <- struct{}{}
		// Wait until the worker has recorded the chip before re-polling,
		// so the observed sequence is deterministic.
		for n := 0; n < 200; n++ {
			if d = poll(); d.ChipsDone > last || d.State == "done" {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if d.ChipsDone <= last && d.State != "done" {
			t.Fatalf("step %d: chips_done stuck at %d", i, d.ChipsDone)
		}
		last = d.ChipsDone
	}
	if code := <-respCh; code != http.StatusOK {
		t.Fatalf("study request: status %d", code)
	}
	d := poll()
	if d.State != "done" || d.ChipsDone != total || d.ChipsTotal != total {
		t.Errorf("final job = state %q %d/%d, want done %d/%d",
			d.State, d.ChipsDone, d.ChipsTotal, total, total)
	}
	if d.Error != "" {
		t.Errorf("done job carries error %q", d.Error)
	}
	if d.TraceURL != "/v1/jobs/"+id+"/trace" {
		t.Errorf("trace_url = %q", d.TraceURL)
	}
}

// Finished jobs are retained FIFO up to Config.JobHistory; the oldest
// is evicted first and its endpoints answer 404.
func TestJobHistoryFIFOEviction(t *testing.T) {
	srv := New(Config{Workers: 1, JobHistory: 2, CacheEntries: -1})
	release := make(chan struct{})
	close(release)
	srv.build, _ = blockingBuilder(nil, release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ids []string
	for seed := 1; seed <= 3; seed++ {
		resp, _, _ := postStudy(t, ts.URL, fmt.Sprintf(`{"chips": 20, "seed": %d}`, seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
		id := resp.Header.Get("X-Job-Id")
		if id == "" {
			t.Fatalf("seed %d: no X-Job-Id", seed)
		}
		ids = append(ids, id)
	}

	var list JobsResponse
	if resp := getJSON(t, ts.URL+"/v1/jobs", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs: status %d", resp.StatusCode)
	}
	if list.HistoryCap != 2 {
		t.Errorf("history_cap = %d, want 2", list.HistoryCap)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("listed jobs = %d, want 2 after eviction (%+v)", len(list.Jobs), list.Jobs)
	}
	// Newest first: the two survivors are jobs 3 and 2.
	if list.Jobs[0].ID != ids[2] || list.Jobs[1].ID != ids[1] {
		t.Errorf("listed ids = %s, %s; want %s, %s (newest first)",
			list.Jobs[0].ID, list.Jobs[1].ID, ids[2], ids[1])
	}
	for _, j := range list.Jobs {
		if j.State != "done" {
			t.Errorf("job %s state = %q, want done", j.ID, j.State)
		}
	}

	if resp := getJSON(t, ts.URL+"/v1/jobs/"+ids[0], nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job detail: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+ids[0]+"/trace", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job trace: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+ids[1], nil); resp.StatusCode != http.StatusOK {
		t.Errorf("retained job detail: status %d, want 200", resp.StatusCode)
	}
}

// Every GET route rejects other methods with 405 and Allow: GET, and
// every {id} route answers an unknown id with 404, each in the
// service's JSON error format, byte for byte; /healthz takes any method.
func TestJobEndpointErrors(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const (
		getOnlyBody  = "{\n  \"error\": \"GET only\",\n  \"class\": \"validation\"\n}\n"
		notFoundBody = "{\n  \"error\": \"unknown job id (finished jobs are retained up to the -job-history bound)\",\n  \"class\": \"validation\"\n}\n"
	)
	do := func(method, path string, wantStatus int, wantAllow, wantBody string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body := readAll(t, resp)
		if resp.StatusCode != wantStatus {
			t.Errorf("%s %s: status %d, want %d", method, path, resp.StatusCode, wantStatus)
		}
		if allow := resp.Header.Get("Allow"); allow != wantAllow {
			t.Errorf("%s %s: Allow = %q, want %q", method, path, allow, wantAllow)
		}
		if wantBody != "" && body != wantBody {
			t.Errorf("%s %s: body %q, want %q", method, path, body, wantBody)
		}
	}

	idRoutes := []string{"/v1/jobs/j999999", "/v1/jobs/j999999/trace", "/v1/jobs/j999999/estimate", "/v1/jobs/j999999/events"}
	for _, path := range idRoutes {
		do(http.MethodGet, path, http.StatusNotFound, "", notFoundBody)
	}
	for _, path := range append([]string{"/v1/constraints", "/v1/jobs", "/v1/events"}, idRoutes...) {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			do(method, path, http.StatusMethodNotAllowed, http.MethodGet, getOnlyBody)
		}
	}
	do(http.MethodPost, "/healthz", http.StatusOK, "", "")
}

// Cache hits must stay attributable: the cached response carries the
// producing job's id in X-Job-Id and the job's cache_hits counter
// increments.
func TestCacheHitProvenance(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"chips": 30, "seed": 11}`
	first, _, _ := postStudy(t, ts.URL, body)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first: status %d", first.StatusCode)
	}
	id := first.Header.Get("X-Job-Id")
	if id == "" {
		t.Fatal("first response missing X-Job-Id")
	}

	second, res, _ := postStudy(t, ts.URL, body)
	if second.StatusCode != http.StatusOK || !res.Cached {
		t.Fatalf("second: status %d cached %v, want cached 200", second.StatusCode, res.Cached)
	}
	if got := second.Header.Get("X-Job-Id"); got != id {
		t.Errorf("cached X-Job-Id = %q, want producing job %q", got, id)
	}

	var d JobDetail
	getJSON(t, ts.URL+"/v1/jobs/"+id, &d)
	if d.CacheHits != 1 {
		t.Errorf("cache_hits = %d, want 1", d.CacheHits)
	}
	if d.State != "done" {
		t.Errorf("state = %q, want done", d.State)
	}
}

// A real (tiny) study and sweep must leave per-phase build-duration
// histograms and a queue-wait histogram on /metrics, labelled by
// exactly the span names a job scope carries: a span with a dynamic
// name would mint a new series per job and fails here.
func TestBuildPhaseHistogramsInMetrics(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _, _ := postStudy(t, ts.URL, `{"chips": 40, "seed": 3}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("study: status %d", resp.StatusCode)
	}
	if resp, _, fail := postSweep(t, ts.URL, `{"chips": 40, "seed": 3, "axes": [{"param": "vdd", "values": [1.1, 1.05]}]}`, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d (%v)", resp.StatusCode, fail)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text := readAll(t, resp)
	got := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		const prefix = `server_build_phase_seconds_count{phase="`
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			phase, count, _ := strings.Cut(rest, `"} `)
			got[phase] = count
		}
	}
	// measure_chips has one span per worker lane, so its count follows
	// GOMAXPROCS; every other phase runs once per job or sweep config.
	if _, ok := got["measure_chips"]; ok {
		got["measure_chips"] = "per lane"
	}
	want := map[string]string{
		"new_study":             "1",
		"build_population/pair": "1",
		"measure_chips":         "per lane",
		"derive_limits":         "1",
		"assemble_response":     "1",
		"sweep_cluster":         "1",
		"sweep_unit":            "2",
	}
	if !maps.Equal(got, want) {
		t.Errorf("phase label counts %v, want %v", got, want)
	}
	// One study and one sweep: one observation in each duration histogram.
	for _, want := range []string{"server_build_seconds_count 1\n", "server_sweep_seconds_count 1\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}
	if !strings.Contains(text, "server_queue_wait_seconds_count 2\n") {
		t.Error("/metrics missing server_queue_wait_seconds_count 2")
	}
}

// scrape returns the text of one GET /metrics.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return readAll(t, resp)
}

// The /metrics gauges are read at the scrape itself: with the only
// worker busy and one build queued behind it, the scrape reports both,
// and the first scrape after the builds settle reads the server idle.
func TestMetricsGaugesReadAtScrape(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer drain(t, srv)

	release := occupyWorker(t, srv, ts.URL)
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		resp, err := http.Post(ts.URL+"/v1/study", "application/json", strings.NewReader(`{"chips": 20, "seed": 2}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitCounter(t, reg, "server_study_cache_misses_total", 2)

	text := scrape(t, ts.URL)
	for _, want := range []string{"server_workers_busy 1\n", "server_queue_depth 1\n", "server_jobs_admitted 2\n", "\nbuild_chips_per_second "} {
		if !strings.Contains(text, want) {
			t.Errorf("busy scrape missing %q", strings.TrimSpace(want))
		}
	}
	_, rest, _ := strings.Cut(text, "\nruntime_goroutines ")
	line, _, _ := strings.Cut(rest, "\n")
	if n, err := strconv.Atoi(line); err != nil || n <= 0 {
		t.Errorf("runtime_goroutines = %q, want a positive count", line)
	}

	close(release)
	<-queued
	waitSettled(t, srv)
	text = scrape(t, ts.URL)
	for _, want := range []string{"server_workers_busy 0\n", "server_queue_depth 0\n", "server_jobs_admitted 0\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("idle scrape missing %q", strings.TrimSpace(want))
		}
	}
}

// A client that gives up while the build it waits on runs is counted
// in server_requests_abandoned_total; the build itself runs on.
func TestAbandonedRequestCounted(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer drain(t, srv)
	defer close(occupyWorker(t, srv, ts.URL))

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/study", strings.NewReader(`{"chips": 20, "seed": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitCounter(t, reg, "server_study_coalesced_total", 1)
	cancel()
	<-gone
	waitCounter(t, reg, "server_requests_abandoned_total", 1)
	if got := reg.Counter("server_requests_abandoned_total").Value(); got != 1 {
		t.Errorf("server_requests_abandoned_total = %d, want 1", got)
	}
}
