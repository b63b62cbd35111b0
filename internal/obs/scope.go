package obs

import (
	"context"
	"io"
	"log/slog"
	"sync/atomic"
	"time"
)

// Scope is one job's telemetry: a private phase tracer, a structured
// logger stamped with the job id, a lock-free progress counter and the
// job's event publishing. Scopes exist so concurrent builds do not
// interleave their spans in the process-global tracer: the yieldd
// server creates one Scope per admitted build and threads it through
// the pipeline via context.Context (WithScope / ScopeFrom). The
// per-job trace is served from Scope.Tracer, the progress counts back
// /v1/jobs/{id}, and the bus carries its job_phase, job_progress and
// job_estimate events. Metrics are process-wide only: a job has no
// registry of its own.
//
// Every method is nil-safe, mirroring the package-level StartSpan
// contract: code instrumented against a Scope pays only a nil check
// when no scope is attached.
type Scope struct {
	// ID names the job; it doubles as the log correlation key.
	ID string
	// Tracer records the job's phase spans; WriteChromeTrace on it
	// yields the per-job trace served at /v1/jobs/{id}/trace.
	Tracer *Tracer

	logger *slog.Logger

	progressDone  atomic.Int64
	progressTotal atomic.Int64

	// Event publishing, wired by AttachEvents. events is read without
	// synchronisation on the per-chip hot path, so it must be attached
	// before the scope is handed to the build workers.
	events        *EventBus
	progressMinNS int64
	lastProgress  atomic.Int64 // UnixNano of the last progress event
}

// discardLogger swallows log records; the fallback for nil scopes and
// scopes built without a base logger.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// NewScope returns a fresh Scope with its own tracer. The
// scope's logger is base with a "job" attribute set to id (a discarding
// logger when base is nil).
func NewScope(id string, base *slog.Logger) *Scope {
	logger := discardLogger
	if base != nil {
		logger = base.With("job", id)
	}
	return &Scope{
		ID:     id,
		Tracer: NewTracer(),
		logger: logger,
	}
}

// Log returns the scope's structured logger; never nil.
func (s *Scope) Log() *slog.Logger {
	if s == nil || s.logger == nil {
		return discardLogger
	}
	return s.logger
}

// StartSpan opens a span on the scope's tracer (nil scope → no-op
// span). When an event bus is attached and has a subscriber, entering
// the phase also publishes a job_phase event.
func (s *Scope) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	if s.events.Active() {
		s.events.Publish(Event{Type: EventJobPhase, Job: s.ID, Phase: name})
	}
	return s.Tracer.StartSpan(name)
}

// AttachEvents connects the scope to a telemetry bus: AddProgress
// publishes a job_progress snapshot at most once per interval and
// StartSpan publishes job_phase events — but only while the bus has a
// subscriber. With no subscriber attached the progress hot path pays
// one extra atomic load and nothing else (see
// BenchmarkScopeProgressIdleBus and the zero-alloc pin in
// scope_test.go). Must be called before the scope is shared with
// build workers.
func (s *Scope) AttachEvents(bus *EventBus, interval time.Duration) {
	if s == nil {
		return
	}
	s.events = bus
	if interval < 0 {
		interval = 0
	}
	s.progressMinNS = interval.Nanoseconds()
}

// SetProgressTotal records the number of work units the job will
// process — for the population build, the chip count.
func (s *Scope) SetProgressTotal(n int64) {
	if s == nil {
		return
	}
	s.progressTotal.Store(n)
}

// AddProgress adds n completed work units. The build workers call it
// once per chip at the cancellation poll point, so the path without an
// event subscriber must stay one atomic add plus one atomic load: no
// locks, no allocation. With a subscriber attached (via AttachEvents)
// it additionally publishes a throttled job_progress event.
func (s *Scope) AddProgress(n int64) {
	if s == nil {
		return
	}
	done := s.progressDone.Add(n)
	if s.events == nil || !s.events.Active() {
		return
	}
	s.publishProgress(done)
}

// publishProgress emits a job_progress event unless one was published
// within the throttle interval. Racing workers elect one publisher via
// the CompareAndSwap; the losers return without blocking.
func (s *Scope) publishProgress(done int64) {
	now := time.Now().UnixNano()
	last := s.lastProgress.Load()
	if now-last < s.progressMinNS || !s.lastProgress.CompareAndSwap(last, now) {
		return
	}
	s.events.Publish(Event{
		Type: EventJobProgress, Job: s.ID,
		Done: done, Total: s.progressTotal.Load(),
	})
}

// PublishEstimate emits a job_estimate event carrying a streaming
// yield estimate — the live yield over the chips chips measured so
// far, with its confidence interval — whenever the bus has a
// subscriber. The build paces its estimates, so every one it hands
// over streams, the final one included; an idle bus costs one atomic
// load. Nil-safe.
func (s *Scope) PublishEstimate(yield, ciLow, ciHigh float64, chips, total int64) {
	if s == nil || s.events == nil || !s.events.Active() {
		return
	}
	s.events.Publish(Event{
		Type: EventJobEstimate, Job: s.ID,
		Yield: yield, CILow: ciLow, CIHigh: ciHigh,
		Done: chips, Total: total,
	})
}

// Progress returns the completed and total work-unit counts. done is
// monotonically non-decreasing over a job's lifetime and equals total
// once the build has finished uncancelled.
func (s *Scope) Progress() (done, total int64) {
	if s == nil {
		return 0, 0
	}
	return s.progressDone.Load(), s.progressTotal.Load()
}

// scopeKey is the context key carrying a *Scope.
type scopeKey struct{}

// WithScope returns a context carrying s; the pipeline's instrumented
// phases pick it up via ScopeFrom / StartSpanCtx.
func WithScope(ctx context.Context, s *Scope) context.Context {
	return context.WithValue(ctx, scopeKey{}, s)
}

// ScopeFrom returns the scope carried by ctx, or nil when there is none
// (the CLIs' case: they run one job per process on the global tracer).
func ScopeFrom(ctx context.Context) *Scope {
	s, _ := ctx.Value(scopeKey{}).(*Scope)
	return s
}

// StartSpanCtx opens a span on the scope carried by ctx, falling back
// to the default (process-global) tracer when no scope is attached.
// This is how the core pipeline keeps one instrumentation call site
// serving both the per-job server path and the global CLI path. Going
// through Scope.StartSpan means phase entries also reach the scope's
// event bus when one is attached and subscribed.
func StartSpanCtx(ctx context.Context, name string) *Span {
	if s := ScopeFrom(ctx); s != nil {
		return s.StartSpan(name)
	}
	return defaultTracer.Load().StartSpan(name)
}
