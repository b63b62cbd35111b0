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
// each sram.BatchWidth-chip batch of chips [0, n), batch k covering
// [lo, lo+bn) with lo = k·sram.BatchWidth. Up to workers goroutines, no
// more than there are batches, each own an evaluator of model drawing
// from sampler and claim batch indices from a shared counter, so fn
// must write only batch k's own slots; the results then depend on
// neither the worker count nor the schedule. Worker w runs under
// sp.Worker("measure_chips", w) (sp may be nil) and hands each batch it
// finishes to est (nil when the build estimates nothing). Cancellation
// and est's stop are polled once per batch; the caller checks
// ctx.Err() afterwards, since a cancelled loop leaves batches
// unwritten.
func forEachBatch(cancelled *atomic.Bool, sp *obs.Span, est *estimator, n, workers int,
	model *sram.Model, sampler *variation.Sampler, fn func(ev *sram.Evaluator, k, lo, bn int)) {
	nBatches := batchCount(n)
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
			for !cancelled.Load() && !est.stopped() {
				k := int(next.Add(1) - 1)
				if k >= nBatches {
					return
				}
				lo := k * sram.BatchWidth
				fn(ev, k, lo, min(sram.BatchWidth, n-lo))
				est.batchDone(k)
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
// that hand the build's consistent prefix to its estimator, which
// embeds it. A worker marks batch k with one atomic store after writing
// its chips, so a look that loads the mark also sees the chips, and
// every chip below the first unmarked batch is measured and immutable:
// no locks, no copying. The prefix is therefore a multiple of
// sram.BatchWidth or the whole build, and neither a stop nor a worker
// that claims nothing can move it past an unmeasured chip or hold it
// back. The election keeps the looks single-threaded, and with them
// the estimator's own state.
type frontier struct {
	done     []atomic.Bool // per batch: measured
	electing atomic.Int32  // CAS gate: one looker at a time
	next     int           // first batch not known to be measured (looker-only)
	passed   int           // look points at or below the prefix of the last look (looker-only)
}

// prefix returns the consistent prefix of a build of n chips: every
// chip below it is measured. It moves next, the first batch not known
// to be measured, past the batches marked since.
func (f *frontier) prefix(n int) int {
	for f.next < len(f.done) && f.done[f.next].Load() {
		f.next++
	}
	return min(f.next*sram.BatchWidth, n)
}

// stopped reports whether the estimator has ended the loop early.
// Nil-safe.
func (e *estimator) stopped() bool {
	return e != nil && e.stop.Load()
}

// batchDone marks batch k measured. When the consistent prefix has
// passed a look point since the last look, the worker that wins the
// election runs the look, synchronously. A worker that loses the
// election leaves its batch to the next look; estimator.finish
// evaluates the look points no worker reached. The loop reads no clock:
// only the look does, to pace the Sink. Nil-safe: a build that
// estimates nothing pays one nil check per batch.
func (e *estimator) batchDone(k int) {
	if e == nil {
		return
	}
	f := &e.frontier
	f.done[k].Store(true)
	if !f.electing.CompareAndSwap(0, 1) {
		return
	}
	if p := f.prefix(len(e.reg)); p/lookStep > f.passed {
		f.passed = p / lookStep
		e.look(p)
	}
	f.electing.Store(0)
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
