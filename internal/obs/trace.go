package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer records wall-time spans of the pipeline phases as a tree.
//
// The main pipeline runs its phases sequentially, so StartSpan keeps an
// implicit stack: a span started while another is open becomes its
// child. Parallel workers must not touch that stack — they get explicit
// lanes via Span.Worker, which parents the span directly and gives it
// its own Chrome-trace thread id.
type Tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []spanRec
	stack []int // indices of open spans on the sequential phase stack
}

type spanRec struct {
	name       string
	parent     int // index into spans; -1 for roots
	tid        int // Chrome trace_event lane; 1 is the main pipeline
	start, end time.Duration
	open       bool
}

// Span is a handle to one recorded phase. A nil Span is a valid no-op.
type Span struct {
	t   *Tracer
	idx int
}

// NewTracer returns an empty tracer; its clock starts now.
func NewTracer() *Tracer { return &Tracer{base: time.Now()} }

// StartSpan opens a span nested under the innermost open span of the
// sequential phase stack (a root span when the stack is empty).
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := t.push(name, parent, 1)
	t.stack = append(t.stack, idx)
	return &Span{t: t, idx: idx}
}

// Worker opens a child span on its own trace lane (thread id 2+id), for
// concurrent workers whose spans overlap in time.
func (s *Span) Worker(name string, id int) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return &Span{t: s.t, idx: s.t.push(name, s.idx, 2+id)}
}

// push appends an open span record; the caller holds t.mu.
func (t *Tracer) push(name string, parent, tid int) int {
	t.spans = append(t.spans, spanRec{
		name:   name,
		parent: parent,
		tid:    tid,
		start:  time.Since(t.base),
		open:   true,
	})
	return len(t.spans) - 1
}

// End closes the span. Stack-tracked spans are removed from the phase
// stack even when ended out of order.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := &t.spans[s.idx]
	if !rec.open {
		return
	}
	rec.end = time.Since(t.base)
	rec.open = false
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s.idx {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
}

// snapshot copies the records, closing still-open spans at "now" so the
// encoders never see negative durations.
func (t *Tracer) snapshot() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.base)
	out := append([]spanRec(nil), t.spans...)
	for i := range out {
		if out[i].open {
			out[i].end = now
		}
	}
	return out
}

// SpanInfo is one recorded span in a Spans snapshot.
type SpanInfo struct {
	Name   string
	Parent int // index into the snapshot; -1 for roots
	Lane   int // Chrome trace lane (tid); 1 is the main pipeline
	Start  time.Duration
	End    time.Duration
	Open   bool // still running at snapshot time (End is the snapshot time)
}

// Spans returns a point-in-time copy of the recorded spans, open ones
// closed at "now". The yieldd server uses it to fold a finished job's
// phase durations into the global /metrics histograms.
func (t *Tracer) Spans() []SpanInfo {
	recs := t.snapshot()
	out := make([]SpanInfo, len(recs))
	for i, r := range recs {
		out[i] = SpanInfo{
			Name:   r.name,
			Parent: r.parent,
			Lane:   r.tid,
			Start:  r.start,
			End:    r.end,
			Open:   r.open,
		}
	}
	return out
}

// WriteChromeTrace writes the span set in the Chrome trace_event JSON
// array format — load it at chrome://tracing or https://ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Ts   float64 `json:"ts"`  // microseconds
		Dur  float64 `json:"dur"` // microseconds
	}
	spans := t.snapshot()
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name,
			Ph:   "X",
			Pid:  1,
			Tid:  s.tid,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
}

// Summary renders the span tree as an indented text flame summary.
// Same-named siblings are merged into one line (count, summed time);
// percentages are of the parent's wall time (of the total for roots).
func (t *Tracer) Summary() string {
	spans := t.snapshot()
	if len(spans) == 0 {
		return "phase trace: (no spans)\n"
	}
	children := make(map[int][]int)
	var total time.Duration
	for i, s := range spans {
		children[s.parent] = append(children[s.parent], i)
		if s.parent == -1 && s.end > total {
			total = s.end
		}
	}
	if total == 0 {
		total = 1
	}

	var b strings.Builder
	fmt.Fprintf(&b, "phase trace (wall %s)\n", total.Round(time.Microsecond))
	var walk func(parent int, parentDur time.Duration, depth int)
	walk = func(parent int, parentDur time.Duration, depth int) {
		// Merge same-named siblings, preserving first-seen order.
		type group struct {
			name  string
			dur   time.Duration
			count int
			kids  []int
		}
		var order []string
		groups := make(map[string]*group)
		for _, ci := range children[parent] {
			s := spans[ci]
			g, ok := groups[s.name]
			if !ok {
				g = &group{name: s.name}
				groups[s.name] = g
				order = append(order, s.name)
			}
			g.dur += s.end - s.start
			g.count++
			g.kids = append(g.kids, ci)
		}
		sort.SliceStable(order, func(a, b int) bool {
			return groups[order[a]].dur > groups[order[b]].dur
		})
		for _, name := range order {
			g := groups[name]
			label := g.name
			if g.count > 1 {
				label = fmt.Sprintf("%s ×%d", g.name, g.count)
			}
			pct := 100 * float64(g.dur) / float64(parentDur)
			fmt.Fprintf(&b, "%s%-*s %10s %5.1f%%\n",
				strings.Repeat("  ", depth+1), 36-2*depth, label,
				g.dur.Round(time.Microsecond), pct)
			// Recurse using the group's summed duration as the base so a
			// ×N merged line's children still report sensible fractions.
			for _, ci := range g.kids {
				walk(ci, g.dur, depth+1)
			}
		}
	}
	walk(-1, total, 0)
	return b.String()
}
