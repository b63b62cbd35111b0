package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"yieldcache/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden.json from the current server")

// elapsedMS matches the one wall-clock field of a response or result
// body, indented or compact.
var elapsedMS = regexp.MustCompile(`"elapsed_ms": ?[-+.0-9eE]+`)

// stripElapsed zeroes elapsed_ms in place of removing it, so every
// other byte of the body stays comparable.
func stripElapsed(b []byte) []byte {
	return elapsedMS.ReplaceAll(b, []byte(`"elapsed_ms": 0`))
}

// goldenStore is the store.Recover() snapshot the golden test pins:
// the X-Job-Id values, job records with their wall-clock fields zeroed,
// result bodies as exact strings with elapsed_ms zeroed, and the
// idempotency records.
type goldenStore struct {
	StudyJobID string             `json:"study_job_id"`
	SweepJobID string             `json:"sweep_job_id"`
	Jobs       []store.JobRecord  `json:"jobs"`
	Results    []goldenResult     `json:"results"`
	Idem       []store.IdemRecord `json:"idem"`
}

type goldenResult struct {
	Key  string `json:"key"`
	Body string `json:"body"`
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run go test -run TestWireAndStoreBytesGolden -update to create it): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden bytes\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// A study and a sweep, each with an Idempotency-Key, over a File store:
// the response bodies, their job ids, the replayed hit bodies and every
// record a restart over the data directory recovers must stay byte for
// byte what the golden files hold. Regenerate only for an intended wire
// or store change.
func TestWireAndStoreBytesGolden(t *testing.T) {
	const (
		studyBody = `{"chips": 40, "seed": 2006, "include_scatter": true}`
		sweepBody = `{"chips": 40, "seed": 2006, "axes": [{"param": "vdd", "values": [1.1, 1.05]}], "economics": {"wafer_cost": 5000}}`
	)
	dir := t.TempDir()
	srv := New(Config{Workers: 2, Store: openStore(t, dir)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	studyResp, study := postRaw(t, ts.URL, "/v1/study", studyBody, "golden-study")
	sweepResp, sweep := postRaw(t, ts.URL, "/v1/sweep", sweepBody, "golden-sweep")
	checkGolden(t, "study.golden.json", stripElapsed(study))
	checkGolden(t, "sweep.golden.json", stripElapsed(sweep))

	// Replays answer from the cache: the same bytes with cached:true.
	for _, tc := range []struct {
		path, body, key string
		first           []byte
		jobID           string
	}{
		{"/v1/study", studyBody, "golden-study", study, studyResp.Header.Get("X-Job-Id")},
		{"/v1/sweep", sweepBody, "golden-sweep", sweep, sweepResp.Header.Get("X-Job-Id")},
	} {
		resp, replay := postRaw(t, ts.URL, tc.path, tc.body, tc.key)
		want := bytes.Replace(tc.first, []byte(`"cached": false`), []byte(`"cached": true`), 1)
		if !bytes.Equal(replay, want) {
			t.Errorf("%s replay differs from the first body with cached:true", tc.path)
		}
		if resp.Header.Get("Idempotency-Replayed") != "true" || resp.Header.Get("X-Job-Id") != tc.jobID {
			t.Errorf("%s replay headers: Idempotency-Replayed %q, X-Job-Id %q (want true, %q)", tc.path,
				resp.Header.Get("Idempotency-Replayed"), resp.Header.Get("X-Job-Id"), tc.jobID)
		}
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	rec := recovered(t, dir)
	g := goldenStore{
		StudyJobID: studyResp.Header.Get("X-Job-Id"),
		SweepJobID: sweepResp.Header.Get("X-Job-Id"),
		Jobs:       rec.Jobs,
		Idem:       rec.Idem,
	}
	for i := range g.Jobs {
		g.Jobs[i].CreatedUnixMS, g.Jobs[i].QueueWaitMS = 0, 0
	}
	for _, r := range rec.Results {
		g.Results = append(g.Results, goldenResult{Key: r.Key, Body: string(stripElapsed(r.Body))})
	}
	got, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "store.golden.json", append(got, '\n'))
}
