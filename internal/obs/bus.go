package obs

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// EventType names one kind of telemetry event on an EventBus. The set
// is closed and low-cardinality by design: SSE clients filter on it and
// metrics may label series with it.
type EventType string

// The event taxonomy. Job lifecycle events carry the job id; cache and
// queue events describe server-wide state transitions.
const (
	// EventJobAdmitted fires when a study build is accepted into the
	// queue; EventJobStarted when it acquires a worker slot.
	EventJobAdmitted EventType = "job_admitted"
	EventJobStarted  EventType = "job_started"
	// EventJobProgress is a throttled snapshot of the build's lock-free
	// chip counter (Done out of Total chips measured).
	EventJobProgress EventType = "job_progress"
	// EventJobPhase fires when a build enters a new pipeline phase
	// (queue_wait, new_study, build_population/pair, …).
	EventJobPhase EventType = "job_phase"
	// EventJobEstimate is a paced streaming yield estimate: the
	// build's live yield with its confidence interval (Yield,
	// CILow/CIHigh) over the Done chips measured so far.
	EventJobEstimate EventType = "job_estimate"
	// EventJobCompleted and EventJobFailed are terminal: exactly one of
	// them ends every admitted job, carrying the error class.
	EventJobCompleted EventType = "job_completed"
	EventJobFailed    EventType = "job_failed"
	// EventSweepConfig fires when a design-space sweep finishes one
	// config: Key carries the config label ("vdd=1.08 nominal") and
	// Done/Total count configs, not chips.
	EventSweepConfig EventType = "sweep_config"
	// EventCacheHit fires when a request is answered from the result
	// cache; EventCacheEvict when an entry ages out.
	EventCacheHit   EventType = "cache_hit"
	EventCacheEvict EventType = "cache_evict"
	// EventQueuePressure reports builds waiting beyond the worker pool;
	// EventShed a request refused because the queue was full.
	EventQueuePressure EventType = "queue_pressure"
	EventShed          EventType = "shed"
)

// allEventTypes is the closed taxonomy in declaration order.
var allEventTypes = []EventType{
	EventJobAdmitted, EventJobStarted, EventJobProgress, EventJobPhase,
	EventJobEstimate, EventJobCompleted, EventJobFailed, EventSweepConfig,
	EventCacheHit, EventCacheEvict, EventQueuePressure, EventShed,
}

// Valid reports whether t is one of the defined event types.
func (t EventType) Valid() bool { return slices.Contains(allEventTypes, t) }

// EventTypes returns every defined event type in declaration order, for
// documentation and filter validation.
func EventTypes() []EventType { return slices.Clone(allEventTypes) }

// Event is one telemetry record. Only the fields relevant to its Type
// are set; the JSON encoding omits the rest, so an SSE frame stays one
// short line. Seq is assigned by the bus at publish time and increases
// monotonically, so a subscriber can detect gaps left by drop-oldest
// overflow. Replayed snapshot events synthesised for late subscribers
// carry Seq 0.
type Event struct {
	Seq    uint64    `json:"seq,omitempty"`
	TimeMS int64     `json:"time_ms"`
	Type   EventType `json:"type"`

	// Job is the subject job id of job_* / cache_hit / shed events.
	Job string `json:"job,omitempty"`
	// Class is the ErrClass of terminal and shed events.
	Class string `json:"class,omitempty"`
	// Phase is the pipeline phase name of job_phase events.
	Phase string `json:"phase,omitempty"`
	// Error is the failure reason of job_failed events.
	Error string `json:"error,omitempty"`
	// Done/Total are the chip progress counters of job_progress and
	// terminal events.
	Done  int64 `json:"done,omitempty"`
	Total int64 `json:"total,omitempty"`
	// Queued/Running describe queue_pressure events.
	Queued  int `json:"queued,omitempty"`
	Running int `json:"running,omitempty"`
	// Key is the canonical study key of cache_evict events.
	Key string `json:"key,omitempty"`
	// Yield and CILow/CIHigh carry a job_estimate event's streaming
	// yield estimate and its confidence interval; Done counts the chips
	// the estimate covers.
	Yield  float64 `json:"yield,omitempty"`
	CILow  float64 `json:"ci_low,omitempty"`
	CIHigh float64 `json:"ci_high,omitempty"`
	// QueueWaitMS is the admission-to-slot wait of job_started events.
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	// ElapsedMS is the build wall time of job_completed events.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// EventBus is a bounded, drop-oldest, multi-subscriber pub/sub for
// telemetry events. It is built for a hot publisher and few slow
// consumers: Publish with no subscribers is one atomic load and an
// immediate return (no locks, no allocation — see
// BenchmarkEventBusIdlePublish), and a subscriber that stops draining
// its buffer loses its oldest events, never blocking the publisher or
// its fellow subscribers. All methods are nil-safe.
type EventBus struct {
	active atomic.Int32  // subscriber count; the Publish fast-path gate
	seq    atomic.Uint64 // publish sequence; gaps reveal drops

	mu   sync.Mutex
	subs map[*EventSub]struct{}
}

// NewEventBus returns an empty bus.
func NewEventBus() *EventBus {
	return &EventBus{subs: make(map[*EventSub]struct{})}
}

// Active reports whether any subscriber is attached. Publishers on hot
// paths call it before assembling an Event so the idle cost stays one
// atomic load.
func (b *EventBus) Active() bool { return b != nil && b.active.Load() > 0 }

// Subscribers returns the number of attached subscribers.
func (b *EventBus) Subscribers() int {
	if b == nil {
		return 0
	}
	return int(b.active.Load())
}

// Publish stamps ev with the next sequence number and the current time
// and offers it to every subscriber whose type filter matches. A
// subscriber with a full buffer has its oldest event dropped to make
// room (drop-oldest), so publishing never blocks. With no subscribers
// Publish returns immediately without touching the lock.
func (b *EventBus) Publish(ev Event) {
	if b == nil || b.active.Load() == 0 {
		return
	}
	ev.Seq = b.seq.Add(1)
	ev.TimeMS = time.Now().UnixMilli()
	b.mu.Lock()
	for s := range b.subs {
		if !s.wants(ev.Type) {
			continue
		}
		select {
		case s.ch <- ev:
			continue
		default:
		}
		// Buffer full: evict the oldest queued event, then retry once.
		// The receiver may race us for the oldest slot; either way one
		// slot frees and the second send can only fail if the receiver
		// refilled the buffer, which it cannot — it only drains.
		select {
		case <-s.ch:
			s.dropped.Add(1)
		default:
		}
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// Subscribe attaches a new subscriber with the given buffer capacity
// (minimum 1). An empty types list receives everything; otherwise only
// the listed types are delivered. The caller must Close the subscriber
// when done.
func (b *EventBus) Subscribe(buf int, types ...EventType) *EventSub {
	if b == nil {
		return nil
	}
	if buf < 1 {
		buf = 1
	}
	s := &EventSub{bus: b, ch: make(chan Event, buf)}
	if len(types) > 0 {
		s.types = make(map[EventType]bool, len(types))
		for _, t := range types {
			s.types[t] = true
		}
	}
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	b.active.Add(1)
	return s
}

// EventSub is one subscription on an EventBus. Events arrive on the
// channel returned by Events; Dropped counts the ones lost to buffer
// overflow. All methods are nil-safe.
type EventSub struct {
	bus     *EventBus
	ch      chan Event
	types   map[EventType]bool // nil = all types
	dropped atomic.Uint64
	once    sync.Once
}

func (s *EventSub) wants(t EventType) bool {
	return s.types == nil || s.types[t]
}

// Events returns the delivery channel. It is closed by Close; a
// receiver seeing the channel close knows the subscription ended.
func (s *EventSub) Events() <-chan Event {
	if s == nil {
		return nil
	}
	return s.ch
}

// Dropped returns how many events this subscriber lost to overflow.
func (s *EventSub) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Close detaches the subscriber and closes its channel. Safe to call
// more than once.
func (s *EventSub) Close() {
	if s == nil {
		return
	}
	s.once.Do(func() {
		s.bus.mu.Lock()
		delete(s.bus.subs, s)
		// Closing under the bus lock: Publish sends only while holding
		// the same lock and only to subscribers still in the map, so a
		// send on the closed channel is impossible.
		close(s.ch)
		s.bus.mu.Unlock()
		s.bus.active.Add(-1)
	})
}
