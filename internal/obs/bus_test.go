package obs

import (
	"slices"
	"testing"
	"time"
)

func drain(s *EventSub) []Event {
	var out []Event
	for {
		select {
		case ev := <-s.Events():
			out = append(out, ev)
		default:
			return out
		}
	}
}

func TestEventBusFanOutAndFilter(t *testing.T) {
	b := NewEventBus()
	all := b.Subscribe(16)
	onlyShed := b.Subscribe(16, EventShed)
	defer all.Close()
	defer onlyShed.Close()

	b.Publish(Event{Type: EventJobAdmitted, Job: "j1"})
	b.Publish(Event{Type: EventShed, Job: "j2"})
	b.Publish(Event{Type: EventJobCompleted, Job: "j1"})

	got := drain(all)
	if len(got) != 3 {
		t.Fatalf("unfiltered subscriber got %d events, want 3", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.TimeMS == 0 {
			t.Errorf("event %d: no timestamp", i)
		}
	}
	shed := drain(onlyShed)
	if len(shed) != 1 || shed[0].Type != EventShed || shed[0].Job != "j2" {
		t.Errorf("filtered subscriber got %+v, want one shed event for j2", shed)
	}
}

// A saturated subscriber must lose its oldest events, keep the newest,
// and never block the publisher or a healthy subscriber.
func TestEventBusOverflowDropsOldest(t *testing.T) {
	b := NewEventBus()
	slow := b.Subscribe(4)
	fast := b.Subscribe(16)
	defer slow.Close()
	defer fast.Close()

	published := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			b.Publish(Event{Type: EventJobProgress, Done: int64(i + 1)})
		}
		close(published)
	}()
	select {
	case <-published:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a saturated subscriber")
	}

	got := drain(slow)
	if len(got) != 4 {
		t.Fatalf("saturated subscriber holds %d events, want 4 (buffer size)", len(got))
	}
	// Drop-oldest: the survivors are the newest four, in order.
	for i, ev := range got {
		if want := int64(7 + i); ev.Done != want {
			t.Errorf("survivor %d: done %d, want %d (oldest must be dropped)", i, ev.Done, want)
		}
	}
	if d := slow.Dropped(); d != 6 {
		t.Errorf("slow.Dropped() = %d, want 6", d)
	}
	if got := drain(fast); len(got) != 10 || fast.Dropped() != 0 {
		t.Errorf("healthy subscriber got %d events (%d dropped), want all 10",
			len(got), fast.Dropped())
	}
}

func TestEventBusSubscribeClose(t *testing.T) {
	b := NewEventBus()
	if b.Active() {
		t.Error("fresh bus reports Active")
	}
	s := b.Subscribe(1)
	if !b.Active() || b.Subscribers() != 1 {
		t.Errorf("after Subscribe: Active=%v Subscribers=%d", b.Active(), b.Subscribers())
	}
	s.Close()
	s.Close() // idempotent
	if b.Active() || b.Subscribers() != 0 {
		t.Errorf("after Close: Active=%v Subscribers=%d", b.Active(), b.Subscribers())
	}
	if _, ok := <-s.Events(); ok {
		t.Error("closed subscription channel still delivers")
	}
	b.Publish(Event{Type: EventShed}) // must not panic or deliver anywhere
}

func TestEventBusNilSafety(t *testing.T) {
	var b *EventBus
	b.Publish(Event{Type: EventShed})
	if b.Active() || b.Subscribers() != 0 {
		t.Error("nil bus reports activity")
	}
	if s := b.Subscribe(1); s != nil {
		t.Error("nil bus returned a subscription")
	}
	var sub *EventSub
	sub.Close()
	if sub.Events() != nil || sub.Dropped() != 0 {
		t.Error("nil subscription misbehaves")
	}
}

func TestEventTypeValid(t *testing.T) {
	for _, typ := range EventTypes() {
		if !typ.Valid() {
			t.Errorf("EventTypes() returned invalid type %q", typ)
		}
	}
	if EventType("bogus").Valid() {
		t.Error(`"bogus" reported valid`)
	}
	want := []EventType{
		"job_admitted", "job_started", "job_progress", "job_phase",
		"job_estimate", "job_completed", "job_failed", "sweep_config",
		"cache_hit", "cache_evict", "queue_pressure", "shed",
	}
	if got := EventTypes(); !slices.Equal(got, want) {
		t.Errorf("EventTypes() = %v, want %v in declaration order", got, want)
	}
}

// The no-subscriber publish path is the one the per-chip hot loop sees:
// it must not allocate.
func TestEventBusIdlePublishZeroAlloc(t *testing.T) {
	b := NewEventBus()
	allocs := testing.AllocsPerRun(1000, func() {
		b.Publish(Event{Type: EventJobProgress, Job: "j000001", Done: 1, Total: 2000})
	})
	if allocs != 0 {
		t.Errorf("idle Publish allocates %.1f times per op, want 0", allocs)
	}
}

// Scope.AddProgress with a bus attached but no subscriber is the exact
// per-chip cost the yieldd build pays when nobody is streaming: pin it
// at zero allocations.
func TestScopeProgressIdleBusZeroAlloc(t *testing.T) {
	s := NewScope("j000001", nil)
	s.AttachEvents(NewEventBus(), 250*time.Millisecond)
	s.SetProgressTotal(2000)
	allocs := testing.AllocsPerRun(1000, func() { s.AddProgress(1) })
	if allocs != 0 {
		t.Errorf("AddProgress with idle bus allocates %.1f times per op, want 0", allocs)
	}
}

func TestScopeProgressPublishesThrottled(t *testing.T) {
	b := NewEventBus()
	sub := b.Subscribe(64, EventJobProgress)
	defer sub.Close()

	s := NewScope("j000042", nil)
	s.AttachEvents(b, time.Hour) // first event passes, the rest throttle
	s.SetProgressTotal(100)
	for i := 0; i < 100; i++ {
		s.AddProgress(1)
	}
	got := drain(sub)
	if len(got) != 1 {
		t.Fatalf("got %d progress events under a 1h throttle, want 1", len(got))
	}
	if got[0].Job != "j000042" || got[0].Done != 1 || got[0].Total != 100 {
		t.Errorf("progress event = %+v", got[0])
	}

	// Zero interval: every AddProgress publishes.
	s2 := NewScope("j000043", nil)
	s2.AttachEvents(b, 0)
	s2.SetProgressTotal(10)
	for i := 0; i < 10; i++ {
		s2.AddProgress(1)
	}
	if got := drain(sub); len(got) != 10 {
		t.Errorf("got %d progress events with no throttle, want 10", len(got))
	}
}

func TestScopeStartSpanPublishesPhase(t *testing.T) {
	b := NewEventBus()
	s := NewScope("j000007", nil)
	s.AttachEvents(b, 0)

	s.StartSpan("before_subscribe").End() // no subscriber: no event
	sub := b.Subscribe(8, EventJobPhase)
	defer sub.Close()
	s.StartSpan("build_population/pair").End()

	got := drain(sub)
	if len(got) != 1 || got[0].Phase != "build_population/pair" || got[0].Job != "j000007" {
		t.Errorf("phase events = %+v, want one build_population/pair for j000007", got)
	}
}

func BenchmarkEventBusIdlePublish(b *testing.B) {
	bus := NewEventBus()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(Event{Type: EventJobProgress, Job: "j000001", Done: int64(i), Total: 2000})
	}
}

func BenchmarkScopeProgressIdleBus(b *testing.B) {
	s := NewScope("j000001", nil)
	s.AttachEvents(NewEventBus(), 250*time.Millisecond)
	s.SetProgressTotal(int64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddProgress(1)
	}
}

func BenchmarkEventBusPublishOneSubscriber(b *testing.B) {
	bus := NewEventBus()
	sub := bus.Subscribe(64, EventJobProgress)
	defer sub.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.Events() {
		}
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(Event{Type: EventJobProgress, Done: int64(i)})
	}
	b.StopTimer()
	sub.Close()
	<-done
}

// Every estimate a build hands the scope reaches a subscriber, in
// order, whatever the progress throttle: the build paces estimates, so
// a second throttle here would drop the final one.
func TestScopePublishEstimateReachesSubscriber(t *testing.T) {
	b := NewEventBus()
	sub := b.Subscribe(64, EventJobEstimate)
	defer sub.Close()

	s := NewScope("j000051", nil)
	s.AttachEvents(b, time.Hour) // throttles progress events only
	const n = 50
	for i := 0; i < n; i++ {
		s.PublishEstimate(0.8, 0.75, 0.85, int64(i+1), 2000)
	}
	got := drain(sub)
	if len(got) != n {
		t.Fatalf("got %d estimate events for %d published, want every one", len(got), n)
	}
	for i, ev := range got {
		if ev.Job != "j000051" || ev.Yield != 0.8 || ev.CILow != 0.75 || ev.CIHigh != 0.85 ||
			ev.Done != int64(i+1) || ev.Total != 2000 {
			t.Errorf("estimate event %d = %+v", i, ev)
		}
	}

	// No subscriber for the type: publishing is a no-op, and a nil
	// scope or unattached bus never panics.
	var nilScope *Scope
	nilScope.PublishEstimate(1, 1, 1, 1, 1)
	NewScope("j000052", nil).PublishEstimate(1, 1, 1, 1, 1)
}
