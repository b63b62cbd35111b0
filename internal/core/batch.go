package core

import (
	"context"
	"sync"
	"sync/atomic"

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

// lookStep is the chip spacing of every build's looks: a look point
// falls at each multiple of it, whatever the clock, the workers or the
// scheduling. Eight batches keep a precision build to one O(P)
// snapshot per 64 chips and its stop overshoot to about 32 chips.
const lookStep = 8 * sram.BatchWidth

// frontier tracks which batches of a build are measured, for the looks
// that hand its consistent prefix to the estimator and the
// checkpointer. A worker marks batch k with one atomic store after
// writing its chips, so a look that loads the mark also sees the chips,
// and every chip below the first unmarked batch is measured and
// immutable: no locks, no copying. The prefix is therefore base +
// k·sram.BatchWidth or n, and neither a stop nor a worker that claims
// nothing can move it past an unmeasured chip or hold it back. The
// zero frontier arms nothing and costs the loop one nil check per
// batch.
type frontier struct {
	done    []atomic.Bool // per batch of [base, n): measured; nil when nothing is armed
	base, n int
	sched   *schedule     // the estimator's when it is armed, else the checkpointer's
	est     *estimator    // nil when unarmed
	ckp     *checkpointer // nil when unarmed
}

// schedule is the state of a build's looks, which the election keeps
// single-threaded, as it does the consumers' own. The estimator and the
// checkpointer each embed one, so arming either adds no allocation; a
// build uses one.
type schedule struct {
	electing atomic.Int32 // CAS gate: one looker at a time
	next     int          // first batch not known to be measured (looker-only)
	passed   int          // look points at or below the prefix of the last look (looker-only)
}

// newFrontier returns the frontier of chips [base, n) shared by a
// build's estimator and checkpointer, either of which may be nil; with
// neither it is the zero frontier.
func newFrontier(base, n int, ckp *checkpointer, est *estimator) frontier {
	f := frontier{base: base, n: n, est: est, ckp: ckp}
	switch {
	case est != nil:
		f.sched = &est.schedule
	case ckp != nil:
		f.sched = &ckp.schedule
	default:
		return f
	}
	f.done = make([]atomic.Bool, batchCount(n-base))
	return f
}

// stopped reports whether the estimator has ended the loop early.
func (f frontier) stopped() bool {
	return f.est != nil && f.est.stop.Load()
}

// finish marks batch k measured. When the consistent prefix has passed
// a look point since the last look, the worker that wins the election
// hands it to the estimator, then to the checkpointer, synchronously.
// A worker that loses the election leaves its batch to the next look;
// estimator.finish evaluates the look points no worker reached. The
// loop reads no clock: only the estimator does, once per look, to pace
// its Sink.
func (f frontier) finish(k int) {
	if f.done == nil {
		return
	}
	f.done[k].Store(true)
	s := f.sched
	if !s.electing.CompareAndSwap(0, 1) {
		return
	}
	if p := f.prefix(&s.next); p/lookStep > s.passed {
		s.passed = p / lookStep
		f.est.look(p)
		f.ckp.look(p)
	}
	s.electing.Store(0)
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
