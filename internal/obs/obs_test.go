package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total")
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters never go down
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("hits_total") != c {
		t.Error("second lookup should return the same counter")
	}
	g := r.Gauge("speed")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every disabled-path accessor must be a no-op, not a panic.
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", nil).Observe(1)
	var tr *Tracer
	sp := tr.StartSpan("x")
	sp.Worker("z", 3).End()
	sp.End()
	if s := tr.Summary(); !strings.Contains(s, "no spans") {
		t.Errorf("nil tracer summary = %q", s)
	}
	Disable()
	C("x").Inc()
	G("x").Set(1)
	H("x", nil).Observe(1)
	StartSpan("x").End()
}

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0} {
		h.Observe(v)
	}
	// Bounds are inclusive upper edges: 0.5,1.0 -> le=1; 1.5,2.0 -> le=2;
	// 3.0,4.0 -> le=4; 100 -> overflow.
	want := []int64{2, 2, 2, 1}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if math.Abs(h.Sum()-112.0) > 1e-9 {
		t.Errorf("sum = %v, want 112", h.Sum())
	}
	// Unsorted bounds are sorted at construction.
	h2 := newHistogram([]float64{4, 1, 2})
	h2.Observe(1.5)
	if b := h2.Buckets(); b[1] != 1 {
		t.Errorf("unsorted-bounds bucketing wrong: %v", b)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0.5, 0.25, 3)
	if lin[0] != 0.5 || lin[1] != 0.75 || lin[2] != 1.0 {
		t.Errorf("linear buckets = %v", lin)
	}
	exp := ExpBuckets(1e-3, 10, 3)
	if exp[0] != 1e-3 || exp[1] != 1e-2 || exp[2] != 1e-1 {
		t.Errorf("exp buckets = %v", exp)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(w))
				r.Histogram("h", []float64{10, 100, 1000}).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got < 0 || got > 7 || got != math.Trunc(got) {
		t.Errorf("concurrent gauge = %v, want one of the values set", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total").Add(3)
	r.Gauge("chips_per_second").Set(123.5)
	r.Histogram("cpi", []float64{1, 2}).Observe(1.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count   int64     `json:"count"`
			Sum     float64   `json:"sum"`
			Bounds  []float64 `json:"bounds"`
			Buckets []int64   `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.Counters["runs_total"] != 3 {
		t.Errorf("counters = %v", out.Counters)
	}
	if out.Gauges["chips_per_second"] != 123.5 {
		t.Errorf("gauges = %v", out.Gauges)
	}
	h := out.Histograms["cpi"]
	if h.Count != 1 || h.Sum != 1.5 || len(h.Buckets) != 3 || h.Buckets[1] != 1 {
		t.Errorf("histogram = %+v", h)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total").Add(3)
	r.Counter(`scheme_saved_total{scheme="YAPD"}`).Add(7)
	r.Gauge("chips_per_second").Set(123.5)
	h := r.Histogram("cpi", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE runs_total counter",
		"runs_total 3",
		"# TYPE scheme_saved_total counter",
		`scheme_saved_total{scheme="YAPD"} 7`,
		"# TYPE chips_per_second gauge",
		"chips_per_second 123.5",
		"# TYPE cpi histogram",
		`cpi_bucket{le="1"} 1`,
		`cpi_bucket{le="2"} 2`,
		`cpi_bucket{le="+Inf"} 3`,
		"cpi_sum 11",
		"cpi_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTracerTreeAndChromeTrace(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("pipeline")
	build := tr.StartSpan("build") // nested: build is open inside pipeline
	w0 := build.Worker("worker", 0)
	w1 := build.Worker("worker", 1)
	time.Sleep(time.Millisecond)
	w0.End()
	w1.End()
	build.End()
	eval := tr.StartSpan("evaluate")
	eval.End()
	root.End()

	sum := tr.Summary()
	for _, want := range []string{"pipeline", "build", "worker ×2", "evaluate"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	// "build" indents deeper than "pipeline".
	var pipeIndent, buildIndent int
	for _, line := range strings.Split(sum, "\n") {
		trimmed := strings.TrimLeft(line, " ")
		if strings.HasPrefix(trimmed, "pipeline") {
			pipeIndent = len(line) - len(trimmed)
		}
		if strings.HasPrefix(trimmed, "build") {
			buildIndent = len(line) - len(trimmed)
		}
	}
	if buildIndent <= pipeIndent {
		t.Errorf("build (indent %d) should nest under pipeline (indent %d):\n%s",
			buildIndent, pipeIndent, sum)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) != 5 {
		t.Fatalf("trace has %d events, want 5", len(trace.TraceEvents))
	}
	tids := map[string]int{}
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %q phase = %q, want X", e.Name, e.Ph)
		}
		if e.Dur < 0 {
			t.Errorf("event %q has negative duration", e.Name)
		}
		tids[e.Name] = e.Tid
	}
	if tids["pipeline"] != 1 || tids["build"] != 1 {
		t.Errorf("main-lane spans should be on tid 1: %v", tids)
	}
	// The two workers share a name; at least one must be off the main lane.
	if tids["worker"] == 1 {
		t.Errorf("worker spans should have their own lanes: %v", tids)
	}
}

func TestTracerOpenSpanSnapshot(t *testing.T) {
	tr := NewTracer()
	tr.StartSpan("never_ended")
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Summary(), "never_ended") {
		t.Error("open span missing from summary")
	}
}

func TestManifest(t *testing.T) {
	m := NewManifest("yieldsim")
	m.Set("seed", int64(2006)).Set("chips", 2000).Set("constraints", "nominal")
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out Manifest
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if out.Tool != "yieldsim" || out.GoVersion == "" || out.GOMAXPROCS < 1 {
		t.Errorf("environment fields missing: %+v", out)
	}
	if out.Params["seed"] != "2006" || out.Params["chips"] != "2000" ||
		out.Params["constraints"] != "nominal" {
		t.Errorf("params = %v", out.Params)
	}
	// Nil manifest (observability off) must absorb Set chains.
	var nilM *Manifest
	nilM.Set("a", 1).Set("b", 2)
}

func TestEnableDisableDefault(t *testing.T) {
	defer Disable()
	r := Enable()
	C("x").Inc()
	if r.Counter("x").Value() != 1 {
		t.Error("package-level counter did not reach the default registry")
	}
	tr := EnableTracing()
	StartSpan("phase").End()
	if !strings.Contains(tr.Summary(), "phase") {
		t.Error("package-level span did not reach the default tracer")
	}
	Disable()
	if Default() != nil || defaultTracer.Load() != nil {
		t.Error("Disable did not clear the defaults")
	}
}

// BenchmarkObsDisabled proves the disabled instrumentation path costs a
// few nanoseconds: an atomic pointer load plus nil-receiver method
// calls, no allocation.
func BenchmarkObsDisabled(b *testing.B) {
	Disable()
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			C("cpu_instructions_total").Add(1)
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			H("perf_benchmark_cpi", nil).Observe(1.5)
		}
	})
	b.Run("span", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			StartSpan("phase").End()
		}
	})
	b.Run("span_ctx", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			StartSpanCtx(ctx, "phase").End()
		}
	})
	b.Run("scope_progress", func(b *testing.B) {
		var s *Scope
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.AddProgress(1)
		}
	})
}

// BenchmarkObsEnabled is the comparison point: the live counter path.
func BenchmarkObsEnabled(b *testing.B) {
	Enable()
	defer Disable()
	c := C("cpu_instructions_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
