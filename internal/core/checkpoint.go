package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"yieldcache/internal/obs"
	"yieldcache/internal/sram"
)

// CheckpointConfig turns on periodic build checkpointing and, when
// Resume is set, continues an interrupted build from its saved prefix.
//
// The consistency argument: worker w measures chips base+w, base+w+W,
// … and, after finishing a batch ending at chip i, publishes i+W as
// its frontier with an atomic store. The checkpointer takes P = min
// over worker frontiers; every chip below P was finished before the
// store that made it visible (atomic store/load order), so
// Regular[:P]/Horizontal[:P] is an immutable, fully-measured prefix —
// no locks, no copying, and the hot loop pays one frontier store plus
// a deadline check per batch only when checkpointing is on (nothing at
// all when it is off). Because frontiers move at batch boundaries, the
// published prefix is always batch-aligned: a resumed build restarts
// at a batch edge and re-measures no partially-published batch.
type CheckpointConfig struct {
	// Interval is the time between checkpoint attempts; zero or
	// negative disables the checkpointer (Resume still works).
	Interval time.Duration
	// Sink receives each checkpoint. The pointed-to chips alias the
	// live build arena: the prefix is immutable, but the Sink must
	// finish with it (encode, hash) before returning and must not
	// retain the slices. A Sink error skips that checkpoint; the build
	// carries on and tries again next interval.
	Sink func(*BuildCheckpoint) error
	// Resume, when set, seeds the build with a previously checkpointed
	// prefix: chips below Resume.Done are copied into the arena and
	// measurement starts at Done. The checkpoint's seed, size, mode and
	// model must match the build's.
	Resume *BuildCheckpoint
}

// validateResume checks that a checkpoint belongs to this build.
func validateResume(r *BuildCheckpoint, cfg *PopulationConfig, geom sram.Geometry) error {
	switch {
	case r.Seed != cfg.Seed:
		return fmt.Errorf("core: resume checkpoint seed %d, build seed %d", r.Seed, cfg.Seed)
	case r.N != cfg.N:
		return fmt.Errorf("core: resume checkpoint for %d chips, build wants %d", r.N, cfg.N)
	case !r.Pair:
		return fmt.Errorf("core: resume checkpoint is not a pair build")
	case r.Geom != geom:
		return fmt.Errorf("core: resume checkpoint geometry %+v, build geometry %+v", r.Geom, geom)
	case r.Tech != *cfg.Tech:
		return fmt.Errorf("core: resume checkpoint built under a different technology model")
	}
	return nil
}

// copyMeasInto copies a checkpointed chip measurement into an arena
// slot whose nested slices are already wired to the flat backing
// arrays, preserving the arena's allocation discipline.
func copyMeasInto(dst, src *sram.CacheMeasurement) {
	dst.LatencyPS = src.LatencyPS
	dst.LeakageW = src.LeakageW
	for w := range dst.Ways {
		dw, sw := &dst.Ways[w], &src.Ways[w]
		dw.PeriphLeakW = sw.PeriphLeakW
		dw.LatencyPS = sw.LatencyPS
		dw.LeakageW = sw.LeakageW
		for b := range dw.Banks {
			db, sb := &dw.Banks[b], &sw.Banks[b]
			db.MaxPS = sb.MaxPS
			db.ArrayLeakW = sb.ArrayLeakW
			copy(db.Paths, sb.Paths)
		}
	}
}

// checkpointer drives the periodic Sink calls for one build. It has no
// goroutine of its own: workers publish their frontier per batch, and
// whichever worker first crosses the interval deadline CAS-elects
// itself to assemble the checkpoint (into a reusable embedded
// BuildCheckpoint — the prefix slices alias the live arena) and call
// the Sink synchronously. Enabling checkpoints therefore costs exactly
// two allocations per build (this struct and the frontier slice), and
// checkpoints track actual progress instead of wall-clock ticks that a
// busy CPU might never schedule.
type checkpointer struct {
	cfg      *CheckpointConfig
	frontier []atomic.Int64
	n        int
	interval int64        // nanoseconds between publish attempts
	deadline atomic.Int64 // unix nanos of the next publish attempt
	electing atomic.Int32 // CAS gate: one publisher at a time
	last     int          // frontier of the last accepted checkpoint (publisher-only)
	buf      BuildCheckpoint
	reg, hor []Chip
}

// newCheckpointer returns the worker-driven checkpointer; nil when
// checkpointing is disabled for this build.
func newCheckpointer(ck *CheckpointConfig, base, n, workers int, cfg *PopulationConfig,
	geom sram.Geometry, reg, hor []Chip) *checkpointer {
	if ck == nil || ck.Sink == nil || ck.Interval <= 0 {
		return nil
	}
	c := &checkpointer{
		cfg:      ck,
		frontier: make([]atomic.Int64, workers),
		n:        n,
		interval: int64(ck.Interval),
		last:     base,
		buf: BuildCheckpoint{
			Seed: cfg.Seed, N: n, Pair: true,
			Tech: *cfg.Tech, Geom: geom,
		},
		reg: reg,
		hor: hor,
	}
	for w := range c.frontier {
		c.frontier[w].Store(int64(base + w))
	}
	c.deadline.Store(time.Now().UnixNano() + c.interval)
	return c
}

// min returns the consistent frontier: every chip below it is measured.
func (c *checkpointer) min() int {
	p := int64(c.n)
	for w := range c.frontier {
		if f := c.frontier[w].Load(); f < p {
			p = f
		}
	}
	return int(p)
}

// advance publishes that worker w has finished every chip of its stripe
// up to and including i, and publishes a checkpoint if the interval
// deadline has passed and no other worker is already publishing. The
// off-deadline fast path is one atomic store plus one clock read and
// one atomic load.
func (c *checkpointer) advance(w, i, workers int) {
	c.frontier[w].Store(int64(i + workers))
	now := time.Now().UnixNano()
	if now < c.deadline.Load() {
		return
	}
	if !c.electing.CompareAndSwap(0, 1) {
		return
	}
	// Re-check under the gate: a racing worker may have just published
	// and pushed the deadline forward.
	if now >= c.deadline.Load() {
		c.publish()
		c.deadline.Store(now + c.interval)
	}
	c.electing.Store(0)
}

// publish assembles the current frontier prefix into the reusable
// checkpoint and hands it to the Sink. Caller holds the electing gate;
// successive publishers are ordered by its CAS, so buf and last are
// effectively single-threaded.
func (c *checkpointer) publish() {
	p := c.min()
	if p <= c.last {
		return
	}
	c.buf.Done = p
	c.buf.Regular = c.reg[:p]
	c.buf.Horizontal = c.hor[:p]
	if err := c.cfg.Sink(&c.buf); err != nil {
		obs.C("core_checkpoint_sink_errors_total").Inc()
		return
	}
	c.last = p
	obs.C("core_checkpoints_total").Inc()
}
