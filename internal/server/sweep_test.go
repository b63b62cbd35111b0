package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"yieldcache/internal/obs"
)

func postSweep(t *testing.T, url, body, idemKey string) (*http.Response, SweepResponse, ErrorResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	defer resp.Body.Close()
	var ok SweepResponse
	var fail ErrorResponse
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&ok); err != nil {
			t.Fatalf("decoding SweepResponse: %v", err)
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

// A real two-config sweep end to end: delta reuse in the stats, dense
// results, frontiers over every scheme, a cache hit on the second
// request, and economics as pure presentation.
func TestSweepEndToEnd(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"chips": 60, "seed": 2006, "axes": [{"param": "vdd", "values": [1.1, 1.05]}]}`
	resp, first, _ := postSweep(t, ts.URL, body, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first sweep: status %d", resp.StatusCode)
	}
	if first.Cached {
		t.Error("first sweep reported cached")
	}
	if first.Configs != 2 || len(first.Results) != 2 {
		t.Fatalf("configs = %d, results = %d, want 2", first.Configs, len(first.Results))
	}
	if first.Stats.FullBuilds != 1 || first.Stats.DeltaBuilds != 1 {
		t.Errorf("stats = %+v, want 1 full + 1 delta build", first.Stats)
	}
	for i, r := range first.Results {
		if r.Index != i {
			t.Errorf("results[%d].Index = %d, not dense", i, r.Index)
		}
		if r.Label == "" || len(r.Yields) != 3 {
			t.Errorf("results[%d] incomplete: label %q, %d yields", i, r.Label, len(r.Yields))
		}
		if r.Economics != nil {
			t.Errorf("results[%d] has economics without an economics spec", i)
		}
	}
	if first.Results[0].MeanLatencyPS == first.Results[1].MeanLatencyPS {
		t.Error("vdd axis did not move mean latency")
	}
	for _, name := range []string{"Base", "YAPD", "VACA", "Hybrid"} {
		front, ok := first.Frontiers[name]
		if !ok || len(front) == 0 {
			t.Errorf("frontier %q missing or empty", name)
			continue
		}
		for _, idx := range front {
			if idx < 0 || idx >= len(first.Results) {
				t.Errorf("frontier %q index %d out of range", name, idx)
			}
		}
	}

	// Same grid with economics: a cache hit, priced per request.
	econBody := `{"chips": 60, "seed": 2006, "axes": [{"param": "vdd", "values": [1.1, 1.05]}], "economics": {}}`
	resp, second, _ := postSweep(t, ts.URL, econBody, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second sweep: status %d", resp.StatusCode)
	}
	if !second.Cached {
		t.Error("identical grid not served from the cache")
	}
	for i, r := range second.Results {
		if len(r.Economics) != 4 {
			t.Fatalf("results[%d]: %d economics rows, want 4 (base + 3 schemes)", i, len(r.Economics))
		}
		if r.Economics[0].Scheme != "Base" {
			t.Errorf("results[%d]: first economics row is %q, want Base", i, r.Economics[0].Scheme)
		}
		for _, e := range r.Economics[1:] {
			if e.RevenuePerWafer < r.Economics[0].RevenuePerWafer {
				t.Errorf("results[%d]: scheme %s earns less than base", i, e.Scheme)
			}
		}
	}
	if got := reg.Counter("server_sweep_cache_hits_total").Value(); got != 1 {
		t.Errorf("sweep cache hits = %d, want 1", got)
	}

	// A third request without economics must not see the second
	// request's pricing leak into the cached entry.
	_, third, _ := postSweep(t, ts.URL, body, "")
	for i, r := range third.Results {
		if r.Economics != nil {
			t.Errorf("results[%d]: economics leaked into the cached response", i)
		}
	}

	// The job registry reports the sweep kind.
	jresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var jobs JobsResponse
	if err := json.NewDecoder(jresp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range jobs.Jobs {
		if j.Kind == "sweep" {
			found = true
			if j.ChipsDone != 2 || j.ChipsTotal != 2 {
				t.Errorf("sweep job progress %d/%d, want 2/2 configs", j.ChipsDone, j.ChipsTotal)
			}
		}
	}
	if !found {
		t.Error("no job with kind=sweep in /v1/jobs")
	}
}

func TestSweepValidation(t *testing.T) {
	srv := New(Config{Workers: 1, MaxSweepConfigs: 4, MaxChips: 1000})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, body, wantSubstr string
	}{
		{"unknown param", `{"chips": 50, "axes": [{"param": "threshold", "values": [0.3]}]}`, "unknown tech parameter"},
		{"empty axis", `{"chips": 50, "axes": [{"param": "vdd", "values": []}]}`, "no values"},
		{"unknown scheme", `{"chips": 50, "schemes": ["YAPD", "Turbo"]}`, "unknown scheme"},
		{"grid too large", `{"chips": 50, "axes": [{"param": "vdd", "values": [1, 2, 3, 4, 5]}]}`, "exceeding the server limit"},
		{"chips too large", `{"chips": 100000}`, "exceeds the server limit"},
		{"bad custom constraints", `{"chips": 50, "constraints": [{"name": "loose"}]}`, "named set"},
		{"named plus custom", `{"chips": 50, "constraints": [{"name": "nominal", "delay_sigma_k": 2}]}`, "cannot also carry"},
		{"unknown field", `{"chip_count": 50}`, "unknown field"},
		{"bad geometry", `{"chips": 50, "geometries": [{"ways": 9, "banks_per_way": 4, "rows_per_bank": 64, "bits_per_row": 128, "paths_per_bank": 2}]}`, "ways"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _, fail := postSweep(t, ts.URL, tc.body, "")
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if !strings.Contains(fail.Error, tc.wantSubstr) {
				t.Errorf("error %q does not mention %q", fail.Error, tc.wantSubstr)
			}
		})
	}
}

// One Idempotency-Key, byte-identical bodies, two endpoints: the sweep
// must see a body conflict, not replay the study's response.
func TestSweepIdempotencyCrossEndpointConflict(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"chips": 50, "seed": 2006}`
	resp, _, _ := postStudyIdem(t, ts.URL, body, "shared-key")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("study: status %d", resp.StatusCode)
	}
	resp, _, fail := postSweep(t, ts.URL, body, "shared-key")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("sweep with reused key: status %d, want 409", resp.StatusCode)
	}
	if fail.Class != string(obs.ClassValidation) {
		t.Errorf("conflict class %q, want validation", fail.Class)
	}
}

// Kill -9 mid-sweep: the new server must resume the sweep under the
// same job id, replan it from its persisted spec, and produce results
// and frontiers bit-identical to an uninterrupted sweep.
func TestCrashedSweepResumesBitIdentical(t *testing.T) {
	body := `{"chips": 500, "seed": 2006, "axes": [{"param": "vdd", "values": [1.1, 1.08, 1.05, 1.02]}]}`

	ref := New(Config{Workers: 2})
	tsRef := httptest.NewServer(ref.Handler())
	_, want, _ := postSweep(t, tsRef.URL, body, "")
	drain(t, ref)
	tsRef.Close()
	if want.Configs != 4 {
		t.Fatalf("reference sweep resolved to %d configs, want 4", want.Configs)
	}

	st := newCrashStore(t)
	jobID := crashAfterCopy(t, st, "/v1/sweep", body, "")

	srv2 := New(Config{Workers: 2, Store: openStore(t, st.crash)})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer drain(t, srv2)

	detail := waitFinished(t, ts2.URL, jobID)
	if detail.State != jobDone {
		t.Fatalf("resumed sweep finished %q (%s), want done", detail.State, detail.Error)
	}
	waitSettled(t, srv2)
	if detail.Kind != "sweep" || !detail.Resumed || detail.Restarts != 1 {
		t.Errorf("resumed sweep reports kind=%q resumed=%v restarts=%d, want sweep/true/1",
			detail.Kind, detail.Resumed, detail.Restarts)
	}

	resp, got, _ := postSweep(t, ts2.URL, body, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetching resumed sweep: status %d", resp.StatusCode)
	}
	if !got.Cached {
		t.Error("resumed sweep result not served from cache")
	}
	assertSameSweep(t, got, want)
}

// waitFinished polls a job until it is done or failed.
func waitFinished(t *testing.T, url, jobID string) JobDetail {
	t.Helper()
	var detail JobDetail
	for i := 0; ; i++ {
		jresp, err := http.Get(url + "/v1/jobs/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		if jresp.StatusCode != http.StatusOK {
			t.Fatalf("resumed job %s not found after restart: status %d", jobID, jresp.StatusCode)
		}
		if err := json.NewDecoder(jresp.Body).Decode(&detail); err != nil {
			t.Fatal(err)
		}
		jresp.Body.Close()
		if detail.State == jobDone || detail.State == jobFailed {
			return detail
		}
		if i > 20000 {
			t.Fatalf("resumed job stuck in state %q", detail.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertSameSweep compares the science of two sweep responses: every
// config evaluation and every frontier, bit for bit.
func assertSameSweep(t *testing.T, got, want SweepResponse) {
	t.Helper()
	g, err := json.Marshal(struct {
		Results   []SweepConfigResult
		Frontiers map[string][]int
	}{got.Results, got.Frontiers})
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(struct {
		Results   []SweepConfigResult
		Frontiers map[string][]int
	}{want.Results, want.Frontiers})
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Errorf("sweep results diverge:\n got %s\nwant %s", g, w)
	}
}
