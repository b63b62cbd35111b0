package yieldcache

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"yieldcache/internal/obs"
)

// TestInstrumentedPipeline runs the yield pipeline with the metrics
// registry and tracer enabled, proving the instrumentation is
// concurrency-safe under the parallel population build and the
// PerfEvaluator's worker fan-out (the race detector covers this whole
// test under scripts/check.sh) and that the recorded numbers agree
// with the pipeline's own outputs.
func TestInstrumentedPipeline(t *testing.T) {
	reg := obs.Enable()
	tracer := obs.EnableTracing()
	defer obs.Disable()

	s := NewStudy(StudyConfig{Chips: 200, Seed: 2006})
	bd := s.Table2()

	if got := reg.Counter("core_chips_built_total").Value(); got != 200 {
		t.Errorf("chips built = %d, want 200 (the H-YAPD organisation is derived, not measured)", got)
	}
	if got := reg.Counter("core_chips_classified_total").Value(); got != 200 {
		t.Errorf("chips classified = %d, want 200", got)
	}
	if got := reg.Counter("core_chips_lost_base_total").Value(); got != int64(bd.BaseTotal) {
		t.Errorf("lost counter = %d, Table 2 base total = %d", got, bd.BaseTotal)
	}
	for i, sch := range bd.Schemes {
		key := `core_scheme_lost_total{scheme="` + sch.Scheme + `"}`
		if got := reg.Counter(key).Value(); got != int64(sch.Total) {
			t.Errorf("%s = %d, Table 2 column %d = %d", key, got, i, sch.Total)
		}
	}

	e := NewPerfEvaluator(PerfConfig{Instructions: 20_000})
	cfg := CacheConfig{WayCycles: []int{5, 4, 4, 4}, HRegionOff: -1}
	e.AverageDegradation(cfg, 0) // baseline + config: two cache misses
	e.AverageDegradation(cfg, 0) // both memoized: two cache hits
	if got := reg.Counter("perf_config_cache_misses_total").Value(); got != 2 {
		t.Errorf("config-cache misses = %d, want 2", got)
	}
	if got := reg.Counter("perf_config_cache_hits_total").Value(); got != 2 {
		t.Errorf("config-cache hits = %d, want 2", got)
	}
	if got := reg.Histogram("perf_benchmark_cpi", nil).Count(); got != 48 {
		t.Errorf("CPI observations = %d, want 48 (2 sweeps × 24 benchmarks)", got)
	}
	if got := reg.Counter("cpu_instructions_total").Value(); got != 48*20_000 {
		t.Errorf("instructions simulated = %d, want %d", got, 48*20_000)
	}

	// Both encoders must produce well-formed output of the live registry.
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("metrics JSON invalid")
	}
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE core_chips_built_total counter") {
		t.Error("Prometheus exposition missing TYPE line")
	}

	// The trace must contain the pipeline phases and encode cleanly.
	sum := tracer.Summary()
	for _, phase := range []string{"new_study", "build_population", "breakdown_losses", "suite_cpi"} {
		if !strings.Contains(sum, phase) {
			t.Errorf("flame summary missing phase %q:\n%s", phase, sum)
		}
	}
	buf.Reset()
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("Chrome trace JSON invalid")
	}
}
