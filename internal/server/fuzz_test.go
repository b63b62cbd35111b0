package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzParseRequests feeds arbitrary bodies through both request paths:
// readRequest's decode, then parseRequest's or parseSweepRequest's
// validation and resolution. Parsing must never panic, an accepted
// sweep must plan at most MaxSweepConfigs configs, exactly as many as
// its resolved spec counts, and parsing the same body twice must
// accept or refuse it both times, under the same cache key.
func FuzzParseRequests(f *testing.F) {
	for _, body := range []string{
		// TestRequestValidation's bodies.
		`{"chips": 10, "schemes": ["H-YAPD"]}`,
		`{"chips": 10, "constraints": "loose"}`,
		`{"chips": 10, "constraints": "strict", "custom_constraints": {"delay_sigma_k": 1, "leakage_mult": 3}}`,
		`{"chips": 10, "custom_constraints": {"delay_sigma_k": 1, "leakage_mult": 0}}`,
		`{"chips": 501}`,
		`{"chips": -1}`,
		`{"chips": 10, "timeout_ms": -5}`,
		`{"chip": 10}`,
		`{`,
		// TestSweepValidation's bodies.
		`{"chips": 50, "axes": [{"param": "threshold", "values": [0.3]}]}`,
		`{"chips": 50, "axes": [{"param": "vdd", "values": []}]}`,
		`{"chips": 50, "schemes": ["YAPD", "Turbo"]}`,
		`{"chips": 50, "axes": [{"param": "vdd", "values": [1, 2, 3, 4, 5]}]}`,
		`{"chips": 100000}`,
		`{"chips": 50, "constraints": [{"name": "loose"}]}`,
		`{"chips": 50, "constraints": [{"name": "nominal", "delay_sigma_k": 2}]}`,
		`{"chip_count": 50}`,
		`{"chips": 50, "geometries": [{"ways": 9, "banks_per_way": 4, "rows_per_bank": 64, "bits_per_row": 128, "paths_per_bank": 2}]}`,
		// Accepted requests of each kind.
		`{"chips": 40, "seed": 2006, "include_scatter": true, "precision": {"target_ci_width": 0.05}}`,
		`{"chips": 40, "axes": [{"param": "vdd", "values": [1.1, 1.05]}], "constraints": [{"name": "strict"}, {"delay_sigma_k": 2, "leakage_mult": 4}], "economics": {"wafer_cost": 5000}}`,
	} {
		f.Add([]byte(body))
	}
	srv := New(Config{Workers: 1, MaxChips: 1000, MaxSweepConfigs: 4})
	f.Cleanup(srv.Close)

	// decode runs readRequest on body as a POST, reporting whether it
	// decoded.
	decode := func(body []byte, req any) bool {
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		_, ok := readRequest(httptest.NewRecorder(), r, req)
		return ok
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var studyKeys, sweepKeys []string
		for range 2 {
			var req StudyRequest
			if decode(body, &req) {
				if p, err := srv.parseRequest(&req); err == nil {
					studyKeys = append(studyKeys, p.cacheKey())
				}
			}
			var sreq SweepRequest
			if decode(body, &sreq) {
				if sp, err := srv.parseSweepRequest(&sreq); err == nil {
					// A recovered sweep counts its configs from the
					// resolved spec without planning it (kindFromRecord).
					n, _ := sweepConfigCount(sp.spec)
					if len(sp.plan.Configs) > srv.cfg.MaxSweepConfigs || n != len(sp.plan.Configs) {
						t.Errorf("accepted sweep plans %d configs, its resolved spec counts %d, limit %d",
							len(sp.plan.Configs), n, srv.cfg.MaxSweepConfigs)
					}
					sweepKeys = append(sweepKeys, sp.cacheKey())
				}
			}
		}
		for _, keys := range [][]string{studyKeys, sweepKeys} {
			if len(keys) == 1 || len(keys) == 2 && keys[0] != keys[1] {
				t.Errorf("one body parsed twice gave keys %q", keys)
			}
		}
	})
}
