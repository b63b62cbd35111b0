package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe on a nil receiver (the disabled no-op path) and for concurrent
// use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram: bounds are the
// inclusive upper edges of the finite buckets; one overflow bucket
// catches everything beyond the last bound.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	total   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the (non-cumulative) per-bucket counts; the final
// entry is the overflow bucket.
func (h *Histogram) Buckets() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Bounds returns the finite bucket upper edges.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// LinearBuckets returns n bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n bounds start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry holds named metrics. Metric names follow Prometheus
// conventions and may carry a label suffix in exposition form, e.g.
// `core_scheme_saved_total{scheme="YAPD"}` — the whole string is the
// registry key, and the encoders split it back into name and labels.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the named counter.
// Nil-safe: a nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram;
// bounds are only consulted on first registration.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

type histogramJSON struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
}

type registryJSON struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Histograms map[string]histogramJSON `json:"histograms"`
}

// WriteJSON encodes the whole registry as one JSON object (keys sorted,
// so output is diffable across runs).
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	out := registryJSON{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]histogramJSON),
	}
	r.mu.Lock()
	for n, c := range r.counters {
		out.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		out.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		out.Histograms[n] = histogramJSON{
			Count: h.Count(), Sum: h.Sum(), Bounds: h.Bounds(), Buckets: h.Buckets(),
		}
	}
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// splitName separates a registry key into its metric name and an
// optional `{...}` label suffix (exposition form).
func splitName(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

// joinLabels merges an existing label set with one extra label.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus encodes the registry in the Prometheus text
// exposition format (version 0.0.4): TYPE comments per metric family,
// cumulative `_bucket` series with `le` labels for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := sortedKeys(r.counters)
	gauges := sortedKeys(r.gauges)
	hists := sortedKeys(r.histograms)
	r.mu.Unlock()

	var b strings.Builder
	typed := make(map[string]bool)
	emitType := func(name, kind string) {
		if !typed[name] {
			typed[name] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind)
		}
	}
	for _, key := range counters {
		name, labels := splitName(key)
		emitType(name, "counter")
		fmt.Fprintf(&b, "%s %d\n", series(name, labels), r.Counter(key).Value())
	}
	for _, key := range gauges {
		name, labels := splitName(key)
		emitType(name, "gauge")
		fmt.Fprintf(&b, "%s %s\n", series(name, labels), formatFloat(r.Gauge(key).Value()))
	}
	for _, key := range hists {
		name, labels := splitName(key)
		emitType(name, "histogram")
		h := r.Histogram(key, nil)
		cum := int64(0)
		bounds := h.Bounds()
		for i, c := range h.Buckets() {
			cum += c
			le := "+Inf"
			if i < len(bounds) {
				le = formatFloat(bounds[i])
			}
			fmt.Fprintf(&b, "%s %d\n",
				series(name+"_bucket", joinLabels(labels, `le="`+le+`"`)), cum)
		}
		fmt.Fprintf(&b, "%s %s\n", series(name+"_sum", labels), formatFloat(h.Sum()))
		fmt.Fprintf(&b, "%s %d\n", series(name+"_count", labels), h.Count())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
