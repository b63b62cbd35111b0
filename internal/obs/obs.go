// Package obs is the instrumentation layer of the yield pipeline:
// a metrics registry (atomic counters, gauges, fixed-bucket histograms
// with JSON and Prometheus text encoders), span-based phase tracing
// (wall-time per pipeline phase, rendered as a text flame summary or a
// Chrome trace_event file), and a run-manifest writer that captures
// everything needed to reproduce a run.
//
// The package-level default registry and tracer start disabled: every
// accessor is nil-safe, so instrumented code pays only an atomic load
// and a nil check when observability is off (see BenchmarkObsDisabled).
// CLIs switch it on via Flags/Activate; libraries just call C, G, H and
// StartSpan unconditionally.
package obs

import "sync/atomic"

var (
	defaultRegistry atomic.Pointer[Registry]
	defaultTracer   atomic.Pointer[Tracer]
)

// Enable installs (and returns) a fresh default metrics registry.
// Instrumented code picks it up on its next C/G/H call.
func Enable() *Registry {
	r := NewRegistry()
	defaultRegistry.Store(r)
	return r
}

// EnableTracing installs (and returns) a fresh default tracer.
func EnableTracing() *Tracer {
	t := NewTracer()
	defaultTracer.Store(t)
	return t
}

// Disable switches both the default registry and the default tracer
// off again; subsequent C/G/H/StartSpan calls become no-ops.
func Disable() {
	defaultRegistry.Store(nil)
	defaultTracer.Store(nil)
}

// Default returns the default registry, or nil when disabled.
func Default() *Registry { return defaultRegistry.Load() }

// C returns the named counter of the default registry (nil → no-op).
func C(name string) *Counter { return defaultRegistry.Load().Counter(name) }

// G returns the named gauge of the default registry (nil → no-op).
func G(name string) *Gauge { return defaultRegistry.Load().Gauge(name) }

// H returns the named histogram of the default registry (nil → no-op).
// The bounds apply only on first registration of the name.
func H(name string, bounds []float64) *Histogram {
	return defaultRegistry.Load().Histogram(name, bounds)
}

// StartSpan opens a phase span on the default tracer, nested under the
// innermost span currently open on the caller's (sequential) phase
// stack. Returns nil — a no-op span — when tracing is disabled.
func StartSpan(name string) *Span { return defaultTracer.Load().StartSpan(name) }
