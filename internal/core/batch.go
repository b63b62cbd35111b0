package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"yieldcache/internal/obs"
	"yieldcache/internal/sram"
	"yieldcache/internal/variation"
)

// batchCount is the number of sram.BatchWidth-chip batches n chips fill.
func batchCount(n int) int {
	return (n + sram.BatchWidth - 1) / sram.BatchWidth
}

// forEachBatch is the one parallel loop of every build: it calls fn for
// each sram.BatchWidth-chip batch of chips [base, n), batch k covering
// [lo, lo+bn) with lo = base + k·sram.BatchWidth. Up to workers
// goroutines, no more than there are batches, each own an evaluator of
// model drawing from sampler and claim batch indices from a shared
// counter, so fn must write only batch k's own slots; the results then
// depend on neither the worker count nor the schedule. Worker w runs
// under sp.Worker("measure_chips", w) (sp may be nil) and marks each
// batch it finishes in fr. Cancellation and fr's stop flag are polled
// once per batch; the caller checks ctx.Err() afterwards, since a
// cancelled loop leaves batches unwritten.
func forEachBatch(cancelled *atomic.Bool, sp *obs.Span, fr frontier, base, n, workers int,
	model *sram.Model, sampler *variation.Sampler, fn func(ev *sram.Evaluator, k, lo, bn int)) {
	nBatches := batchCount(n - base)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, nBatches); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := sp.Worker("measure_chips", w)
			defer ws.End()
			ev := model.NewEvaluator(sampler.NewScratch())
			defer ev.Release()
			for !cancelled.Load() && !fr.stopped() {
				k := int(next.Add(1) - 1)
				if k >= nBatches {
					return
				}
				lo := base + k*sram.BatchWidth
				fn(ev, k, lo, min(sram.BatchWidth, n-lo))
				fr.finish(k)
			}
		}(w)
	}
	wg.Wait()
}

// frontier tracks which batches of a build are measured, for the looks
// (the checkpointer and the estimator) that publish its consistent
// prefix. A worker marks batch k with one atomic store after writing
// its chips, so a look that loads the mark also sees the chips, and
// every chip below the first unmarked batch is measured and immutable:
// no locks, no copying. The prefix is therefore base +
// k·sram.BatchWidth or n, and neither a stop nor a worker that claims
// nothing can move it past an unmeasured chip or hold it back. The
// zero frontier arms nothing and costs the loop one nil check per
// batch.
type frontier struct {
	done    []atomic.Bool // per batch of [base, n): measured; nil when no look is armed
	base, n int
	looks   [2]*look     // the checkpointer's and the estimator's, each nil when unarmed
	stop    *atomic.Bool // set by a look to end the loop early; nil for none
}

// newFrontier returns the frontier of chips [base, n) shared by a
// build's checkpointer and estimator, either of which may be nil; with
// neither it is the zero frontier.
func newFrontier(base, n int, ckp *checkpointer, est *estimator) frontier {
	f := frontier{base: base, n: n}
	if ckp != nil {
		f.looks[0] = &ckp.look
	}
	if est != nil {
		f.looks[1], f.stop = &est.look, &est.stop
	}
	if f.looks != [2]*look{} {
		f.done = make([]atomic.Bool, batchCount(n-base))
	}
	return f
}

// stopped reports whether a look has ended the loop early.
func (f frontier) stopped() bool {
	return f.stop != nil && f.stop.Load()
}

// finish marks batch k measured. The first worker past an armed look's
// deadline CAS-elects itself and publishes the prefix synchronously, so
// looks track actual progress instead of wall-clock ticks that a busy
// CPU might never schedule. The off-deadline path is one atomic store,
// one clock read and one atomic load per look.
func (f frontier) finish(k int) {
	if f.done == nil {
		return
	}
	f.done[k].Store(true)
	now := time.Now().UnixNano()
	for _, l := range f.looks {
		if l == nil || now < l.deadline.Load() || !l.electing.CompareAndSwap(0, 1) {
			continue
		}
		// Re-check under the gate: a racing worker may have just
		// published and pushed the deadline forward.
		if now >= l.deadline.Load() {
			l.pub.publish(f.prefix(&l.next))
			l.deadline.Store(now + l.interval)
		}
		l.electing.Store(0)
	}
}

// prefix returns the consistent prefix: every chip below it is
// measured. It moves *next, the first batch not known to be measured,
// past the batches marked since.
func (f frontier) prefix(next *int) int {
	for *next < len(f.done) && f.done[*next].Load() {
		*next++
	}
	return min(f.base+*next*sram.BatchWidth, f.n)
}

// look is a frontier's schedule for one consumer, embedded in the
// checkpointer and the estimator: at most once per interval, the worker
// that wins its election hands the consistent prefix to pub, whose
// state the election therefore keeps single-threaded.
type look struct {
	interval int64        // nanoseconds between publish attempts
	deadline atomic.Int64 // unix nanos of the next publish attempt
	electing atomic.Int32 // CAS gate: one publisher at a time
	next     int          // first batch not known to be measured (publisher-only)
	pub      publisher
}

// publisher receives a look's consistent prefix p.
type publisher interface{ publish(p int) }

// arm starts l's first interval now.
func (l *look) arm(interval time.Duration, pub publisher) {
	l.interval = int64(interval)
	l.pub = pub
	l.deadline.Store(time.Now().UnixNano() + l.interval)
}

// watchCancel translates ctx cancellation into an atomic flag the batch
// loop can poll without touching the context. The returned stop func
// must be called to release the watcher goroutine; with no Done channel
// the flag is a shared never-set atomic and stop is a no-op.
func watchCancel(ctx context.Context) (*atomic.Bool, func()) {
	done := ctx.Done()
	if done == nil {
		return &neverCancelled, func() {}
	}
	var flag atomic.Bool
	stop := make(chan struct{})
	go func() {
		select {
		case <-done:
			flag.Store(true)
		case <-stop:
		}
	}()
	return &flag, func() { close(stop) }
}

var neverCancelled atomic.Bool
