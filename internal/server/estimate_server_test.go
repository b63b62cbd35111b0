package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"yieldcache/internal/obs"
)

// Every real study build streams yield estimates: the response must
// carry the final estimate block, intervals on every breakdown yield at
// the request's confidence, and the GET /v1/jobs/{id}/estimate endpoint
// must serve the same final snapshot. The final snapshot derives the
// table limits bit for bit, so yield_cis.base is exactly the estimate's
// interval, at the default 0.95 and at a precision request's 0.99.
func TestStudyResponseCarriesEstimateAndYieldCIs(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		body  string
		chips int
		conf  float64
		// sameYieldBits: the estimate's yield (k/n) and the table's
		// (1 - lost/n) round alike. At 2000 chips they read 0.824 and
		// 0.8240000000000001 over the same counts.
		sameYieldBits bool
	}{
		{`{"chips": 120, "seed": 2006}`, 120, 0.95, true},
		// The 0.02 target is not reached within 2000 chips at 99%, so
		// the build measures every chip.
		{`{"chips": 2000, "seed": 2006, "precision": {"target_ci_width": 0.02, "confidence": 0.99}}`, 2000, 0.99, false},
	} {
		resp, res, _ := postStudy(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.body, resp.StatusCode)
		}
		if res.Estimate == nil {
			t.Fatalf("%s: study response has no estimate block", tc.body)
		}
		e := res.Estimate
		if e.Chips != tc.chips || e.Total != tc.chips || e.EarlyStop || res.EarlyStop {
			t.Errorf("%s: final estimate shape = %+v (early_stop %v)", tc.body, e, res.EarlyStop)
		}
		if e.Confidence != tc.conf {
			t.Errorf("%s: estimate confidence = %v, want %v", tc.body, e.Confidence, tc.conf)
		}
		if e.CILow > e.Yield || e.CIHigh < e.Yield || e.HalfWidth <= 0 {
			t.Errorf("%s: estimate interval [%v, %v] around %v (half-width %v)",
				tc.body, e.CILow, e.CIHigh, e.Yield, e.HalfWidth)
		}
		if e.Lost != int64(res.Regular.BaseTotal) {
			t.Errorf("%s: estimate lost %d != breakdown base_total %d", tc.body, e.Lost, res.Regular.BaseTotal)
		}
		if got, want := e.Yield, res.Regular.Yields["base"]; tc.sameYieldBits && got != want {
			t.Errorf("%s: estimate yield %v != breakdown base yield %v", tc.body, got, want)
		}
		if ci := res.Regular.YieldCIs["base"]; ci.Low != e.CILow || ci.High != e.CIHigh {
			t.Errorf("%s: yield_cis.base [%v, %v] != final estimate interval [%v, %v]",
				tc.body, ci.Low, ci.High, e.CILow, e.CIHigh)
		}
		if len(e.Reasons) == 0 {
			t.Errorf("%s: estimate has no per-reason error bars", tc.body)
		}

		for _, bd := range []Breakdown{res.Regular, res.Horizontal} {
			for name, y := range bd.Yields {
				ci, ok := bd.YieldCIs[name]
				if !ok {
					t.Errorf("%s: breakdown yield %q has no confidence interval", tc.body, name)
					continue
				}
				if ci.Low > y || ci.High < y {
					t.Errorf("%s: yield %q: interval [%v, %v] does not bracket %v", tc.body, name, ci.Low, ci.High, y)
				}
			}
		}

		id := resp.Header.Get("X-Job-Id")
		jr, err := http.Get(ts.URL + "/v1/jobs/" + id + "/estimate")
		if err != nil {
			t.Fatal(err)
		}
		var je JobEstimateResponse
		err = json.NewDecoder(jr.Body).Decode(&je)
		jr.Body.Close()
		if jr.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("GET /v1/jobs/%s/estimate: status %d, decode error %v", id, jr.StatusCode, err)
		}
		if je.Job != id || je.State != jobDone {
			t.Errorf("estimate endpoint job/state = %s/%s, want %s/done", je.Job, je.State, id)
		}
		if je.Estimate.Chips != tc.chips || je.Estimate.Yield != e.Yield {
			t.Errorf("endpoint estimate %+v differs from response estimate %+v", je.Estimate, e)
		}
	}
}

// A live subscriber sees the final estimate: the last job_estimate
// before job_completed covers the response's estimate.chips. The build
// paces mid-build estimates by the stream interval and always hands
// over the final one, so a 20000-chip build that streams many
// mid-build estimates at a 20 ms interval still ends its stream on the
// whole population.
func TestStudyStreamsFinalEstimate(t *testing.T) {
	srv := New(Config{Workers: 1, StreamInterval: 20 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Room for every event of the build (about 25 estimates at 20 ms, a
	// few hundred under -race), so the subscriber sees the whole
	// stream, not a drop-oldest tail.
	sub := srv.bus.Subscribe(1024, obs.EventJobEstimate, obs.EventJobCompleted)
	defer sub.Close()

	resp, res, _ := postStudy(t, ts.URL, `{"chips": 20000, "seed": 2006}`)
	if resp.StatusCode != http.StatusOK || res.Estimate == nil {
		t.Fatalf("study: status %d, estimate %+v", resp.StatusCode, res.Estimate)
	}
	id := resp.Header.Get("X-Job-Id")
	var last *obs.Event
	estimates := 0
	timeout := time.After(10 * time.Second)
	for done := false; !done; {
		select {
		case ev := <-sub.Events():
			switch {
			case ev.Job != id:
			case ev.Type == obs.EventJobCompleted:
				done = true
			default:
				last = &ev
				estimates++
			}
		case <-timeout:
			t.Fatalf("no job_completed for %s after %d estimates", id, estimates)
		}
	}
	if last == nil || last.Done != int64(res.Estimate.Chips) || last.Yield != res.Estimate.Yield {
		t.Errorf("last of %d streamed estimates = %+v, want the final estimate over %d chips (yield %v)",
			estimates, last, res.Estimate.Chips, res.Estimate.Yield)
	}
}

// A precision-targeted study stops sampling before the requested
// population: the response records early_stop, the estimate meets the
// target, the tables cover only the measured prefix, and the job
// summary carries the provenance flag.
func TestStudyPrecisionEarlyStop(t *testing.T) {
	srv := New(Config{Workers: 1, MaxChips: 20000, StreamInterval: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, res, _ := postStudy(t, ts.URL,
		`{"chips": 4000, "seed": 2006, "precision": {"target_ci_width": 0.05}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("study: status %d", resp.StatusCode)
	}
	if !res.EarlyStop || res.Estimate == nil || !res.Estimate.EarlyStop {
		t.Fatalf("precision study did not stop early: early_stop=%v estimate=%+v",
			res.EarlyStop, res.Estimate)
	}
	if res.Estimate.Chips >= 4000 {
		t.Errorf("stopped at %d chips, expected fewer than 4000", res.Estimate.Chips)
	}
	if res.Estimate.HalfWidth > 0.05 {
		t.Errorf("final half-width %v exceeds the 0.05 target", res.Estimate.HalfWidth)
	}
	if res.Regular.N != res.Estimate.Chips {
		t.Errorf("breakdown covers %d chips, estimate says %d measured", res.Regular.N, res.Estimate.Chips)
	}

	id := resp.Header.Get("X-Job-Id")
	jr, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var jd JobDetail
	if err := json.NewDecoder(jr.Body).Decode(&jd); err != nil {
		t.Fatal(err)
	}
	if !jd.EarlyStop {
		t.Errorf("job detail lacks early_stop: %+v", jd.JobSummary)
	}

	// The same request without a precision target must not share the
	// truncated cache entry: the full-population build reports no
	// early stop and covers all 4000 chips.
	resp2, full, _ := postStudy(t, ts.URL, `{"chips": 4000, "seed": 2006}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("full study: status %d", resp2.StatusCode)
	}
	if full.Cached || full.EarlyStop || full.Regular.N != 4000 {
		t.Errorf("full study after precision study: cached=%v early_stop=%v n=%d",
			full.Cached, full.EarlyStop, full.Regular.N)
	}
}

// A precision study's stop is a function of its request, so the same
// request answers with the same bytes from servers that differ in
// their worker pools and stream intervals: the estimate, regular and
// horizontal blocks of two uncached builds are byte-identical.
func TestStudyPrecisionStopIsDeterministic(t *testing.T) {
	const body = `{"chips": 4000, "seed": 2006, "precision": {"target_ci_width": 0.02}}`
	var blocks []map[string]json.RawMessage
	for _, cfg := range []Config{
		{Workers: 1, CacheEntries: -1, StreamInterval: -1},
		{Workers: 3, CacheEntries: -1},
	} {
		srv := New(cfg)
		ts := httptest.NewServer(srv.Handler())
		_, raw := postRaw(t, ts.URL, "/v1/study", body, "")
		ts.Close()
		srv.Close()
		var res map[string]json.RawMessage
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, res)
	}
	var est EstimateInfo
	if err := json.Unmarshal(blocks[0]["estimate"], &est); err != nil || !est.EarlyStop {
		t.Fatalf("estimate %s (decode error %v): want an early stop", blocks[0]["estimate"], err)
	}
	for _, name := range []string{"estimate", "regular", "horizontal"} {
		if !bytes.Equal(blocks[0][name], blocks[1][name]) {
			t.Errorf("%s differs between a 1-worker and a 3-worker server:\n%s\n%s", name, blocks[0][name], blocks[1][name])
		}
	}
}

// Precision validation: out-of-range targets and confidences are 400s.
func TestStudyPrecisionValidation(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"chips": 40, "precision": {"target_ci_width": 0}}`,
		`{"chips": 40, "precision": {"target_ci_width": 1.5}}`,
		`{"chips": 40, "precision": {"target_ci_width": 0.1, "confidence": 1}}`,
		`{"chips": 40, "precision": {"target_ci_width": 0.1, "confidence": -0.5}}`,
	} {
		resp, _, fail := postStudy(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
		if fail.Class != "validation" {
			t.Errorf("%s: class %q, want validation", body, fail.Class)
		}
	}
}

// The estimate endpoint 404s for unknown jobs and for jobs that never
// published a snapshot (here: a job that was shed at admission).
func TestJobEstimateNotFound(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/jobs/j999999/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job estimate: status %d, want 404", resp.StatusCode)
	}
}

// Sweep results carry post-hoc Wilson intervals on the base and
// per-scheme yields of every config.
func TestSweepYieldCIs(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, sw, _ := postSweep(t, ts.URL, `{"chips": 60, "seed": 2006}`, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	if len(sw.Results) == 0 {
		t.Fatal("sweep returned no results")
	}
	for _, r := range sw.Results {
		if r.BaseCILow > r.BaseYield || r.BaseCIHigh < r.BaseYield {
			t.Errorf("config %d: base interval [%v, %v] does not bracket %v",
				r.Index, r.BaseCILow, r.BaseCIHigh, r.BaseYield)
		}
		if r.BaseCILow == 0 && r.BaseCIHigh == 0 {
			t.Errorf("config %d: base interval missing", r.Index)
		}
		for _, y := range r.Yields {
			if y.Low > y.Yield || y.High < y.Yield {
				t.Errorf("config %d scheme %s: interval [%v, %v] does not bracket %v",
					r.Index, y.Scheme, y.Low, y.High, y.Yield)
			}
		}
	}
}
