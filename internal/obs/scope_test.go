package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
)

// A nil scope must be a complete no-op: every accessor returns a usable
// nil-safe handle, mirroring the package-level disabled path.
func TestScopeNilSafety(t *testing.T) {
	var s *Scope
	s.StartSpan("sp").End()
	s.SetProgressTotal(10)
	s.AddProgress(3)
	if done, total := s.Progress(); done != 0 || total != 0 {
		t.Errorf("nil scope progress = %d/%d, want 0/0", done, total)
	}
	if s.Log() == nil {
		t.Error("nil scope Log() returned nil")
	}
	s.Log().Info("must not panic")
}

func TestScopeContextRoundTrip(t *testing.T) {
	if got := ScopeFrom(context.Background()); got != nil {
		t.Errorf("ScopeFrom(Background) = %v, want nil", got)
	}
	sc := NewScope("j1", nil)
	ctx := WithScope(context.Background(), sc)
	if got := ScopeFrom(ctx); got != sc {
		t.Errorf("ScopeFrom returned %v, want the attached scope", got)
	}
}

// StartSpanCtx must route spans to the scope's tracer when one is
// attached, and to the default tracer otherwise — per-job isolation
// with the global CLI path unchanged.
func TestStartSpanCtxRouting(t *testing.T) {
	defer Disable()
	global := EnableTracing()

	sc := NewScope("j1", nil)
	ctx := WithScope(context.Background(), sc)
	StartSpanCtx(ctx, "scoped_phase").End()
	StartSpanCtx(context.Background(), "global_phase").End()

	if sum := sc.Tracer.Summary(); !strings.Contains(sum, "scoped_phase") {
		t.Errorf("scope tracer missing scoped span:\n%s", sum)
	}
	if sum := sc.Tracer.Summary(); strings.Contains(sum, "global_phase") {
		t.Errorf("scope tracer captured a global span:\n%s", sum)
	}
	if sum := global.Summary(); !strings.Contains(sum, "global_phase") {
		t.Errorf("default tracer missing global span:\n%s", sum)
	}
	if sum := global.Summary(); strings.Contains(sum, "scoped_phase") {
		t.Errorf("default tracer captured a scoped span — the PR-4 interleaving bug:\n%s", sum)
	}
}

func TestScopeProgress(t *testing.T) {
	sc := NewScope("j1", nil)
	sc.SetProgressTotal(100)
	for i := 0; i < 40; i++ {
		sc.AddProgress(1)
	}
	if done, total := sc.Progress(); done != 40 || total != 100 {
		t.Errorf("progress = %d/%d, want 40/100", done, total)
	}
}

// The scope logger must stamp every record with the job id, so logs
// from concurrent builds stay correlated to their jobs.
func TestScopeLoggerCarriesJobID(t *testing.T) {
	var buf bytes.Buffer
	base := slog.New(slog.NewTextHandler(&buf, nil))
	sc := NewScope("j000042", base)
	sc.Log().Info("build started", "chips", 2000)
	line := buf.String()
	if !strings.Contains(line, "job=j000042") {
		t.Errorf("log line missing job attribute: %q", line)
	}
	if !strings.Contains(line, "chips=2000") {
		t.Errorf("log line missing call attribute: %q", line)
	}
}

// Tracer.Spans must expose the recorded spans with closed-at-now
// semantics for open ones.
func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	outer := tr.StartSpan("outer")
	tr.StartSpan("inner").End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("Spans() = %d records, want 2", len(spans))
	}
	if spans[0].Name != "outer" || !spans[0].Open {
		t.Errorf("span 0 = %+v, want open 'outer'", spans[0])
	}
	if spans[1].Name != "inner" || spans[1].Open || spans[1].Parent != 0 {
		t.Errorf("span 1 = %+v, want closed 'inner' with parent 0", spans[1])
	}
	if spans[0].End < spans[0].Start {
		t.Errorf("open span snapshot has End %v < Start %v", spans[0].End, spans[0].Start)
	}
	outer.End()
	var nilTracer *Tracer
	if got := nilTracer.Spans(); len(got) != 0 {
		t.Errorf("nil tracer Spans() = %v, want empty", got)
	}
}
