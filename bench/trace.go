package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"yieldcache/internal/store"
)

// span is one timed interval of the per-layer trace. Request spans are
// the HTTP exchanges; their children are the request's inputs replayed
// through one layer's public functions after the response arrived, while
// no request was in flight, plus the real store calls made during the
// request (persist). OnPath marks the children that stand for work on
// the request's blocking path; the others decompose or compare layers
// (single-thread sampling and kernel, a build without the estimator).
type span struct {
	ID      int
	Parent  int // 0 for request spans
	Request int // workload step the span belongs to
	Name    string
	Start   time.Time
	End     time.Time
	OnPath  bool
	// Size is the span's work: chips for sample, kernel and build
	// spans, bytes for encode and persist spans.
	Size int
}

func (s span) ms() float64 { return float64(s.End.Sub(s.Start)) / 1e6 }

// tracer keeps spans in memory and writes them out once the run ends.
// Only the workload's coordinating goroutine records spans.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// time runs fn as a child span of parent; fn returns the span's size.
func (t *tracer) time(parent, step int, name string, onPath bool, fn func() (int, error)) error {
	start := time.Now()
	size, err := fn()
	t.add(span{Parent: parent, Request: step, Name: name, Start: start, End: time.Now(), OnPath: onPath, Size: size})
	return err
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves the spans as a Chrome trace (chrome://tracing, Perfetto).
func (t *tracer) write(path string) error {
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		tid := 1
		if s.Parent != 0 && !s.OnPath {
			tid = 2
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: tid,
			TS:  float64(s.Start.Sub(t.origin)) / 1e3,
			Dur: float64(s.End.Sub(s.Start)) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "request": s.Request,
				"on_path": s.OnPath, "size": s.Size},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes sums, for one traced request span, its children by name,
// and gives the request's self time: its duration minus its on-path
// children.
type layerTimes struct {
	request float64            // ms
	self    float64            // ms
	ms      map[string]float64 // summed duration per child name
	size    map[string]int     // summed size per child name
	count   map[string]int     // spans per child name
}

func (t *tracer) layers() []layerTimes {
	idx := make(map[int]int)
	var out []layerTimes
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		i, ok := idx[s.Parent]
		if !ok {
			req := t.spans[s.Parent-1]
			i = len(out)
			idx[s.Parent] = i
			out = append(out, layerTimes{request: req.ms(), self: req.ms(),
				ms: map[string]float64{}, size: map[string]int{}, count: map[string]int{}})
		}
		out[i].ms[s.Name] += s.ms()
		out[i].size[s.Name] += s.Size
		out[i].count[s.Name]++
		if s.OnPath {
			out[i].self -= s.ms()
		}
	}
	return out
}

// timedStore wraps the server's store and records every write with its
// interval and payload size, so the trace can attribute persist time to
// the request in flight.
type timedStore struct {
	store.Store
	mu    sync.Mutex
	calls []storeCall
}

type storeCall struct {
	start, end time.Time
	bytes      int
}

func (t *timedStore) record(size int, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.mu.Lock()
	t.calls = append(t.calls, storeCall{start: start, end: end, bytes: size})
	t.mu.Unlock()
	return err
}

// within returns the calls that started inside [from, to].
func (t *timedStore) within(from, to time.Time) []storeCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []storeCall
	for _, c := range t.calls {
		if !c.start.Before(from) && !c.start.After(to) {
			out = append(out, c)
		}
	}
	return out
}

func jsonSize(v any) int {
	b, _ := json.Marshal(v) // sizes only; the store encodes the record itself
	return len(b)
}

func (t *timedStore) PutJob(rec store.JobRecord) error {
	return t.record(jsonSize(rec), func() error { return t.Store.PutJob(rec) })
}

func (t *timedStore) PutResult(key string, body []byte) error {
	return t.record(len(key)+len(body), func() error { return t.Store.PutResult(key, body) })
}

func (t *timedStore) DeleteResult(key string) error {
	return t.record(len(key), func() error { return t.Store.DeleteResult(key) })
}

func (t *timedStore) PutIdem(rec store.IdemRecord) error {
	return t.record(jsonSize(rec), func() error { return t.Store.PutIdem(rec) })
}

func (t *timedStore) DeleteIdem(key string) error {
	return t.record(len(key), func() error { return t.Store.DeleteIdem(key) })
}

func (t *timedStore) PutCheckpoint(jobID string, chips int, data []byte) error {
	return t.record(len(data), func() error { return t.Store.PutCheckpoint(jobID, chips, data) })
}

func (t *timedStore) DeleteCheckpoint(jobID string) error {
	return t.record(len(jobID), func() error { return t.Store.DeleteCheckpoint(jobID) })
}
