package core

import (
	"fmt"

	"yieldcache/internal/obs"
	"yieldcache/internal/sram"
)

// CheckpointConfig turns on build checkpointing and, when Resume is
// set, continues an interrupted build from its saved prefix.
//
// Workers mark each sram.BatchWidth-chip batch measured with an atomic
// store after writing it, and a checkpoint's Done is the start of the
// first unmarked batch: Regular[:Done] is immutable and fully measured,
// with no locks or copying, and Done is base + k·sram.BatchWidth or N,
// so a resumed build restarts at a batch edge.
type CheckpointConfig struct {
	// Sink receives the measured prefix of the regular organisation,
	// from which a resumed build derives everything else, each time the
	// build passes a multiple of 64 chips beyond the last prefix it
	// took; nil disables the checkpointer (Resume still works). An offer
	// costs the build no copy and no encoding, so the Sink paces itself:
	// it returns nil without writing to skip one. Its chips alias the
	// live build arena: the prefix is immutable, but the Sink must
	// finish with it (encode, hash) before returning and must not
	// retain the slices. A Sink error skips that checkpoint; the build
	// carries on and offers the prefix again at the next look point.
	Sink func(*BuildCheckpoint) error
	// Resume, when set, seeds the build with a previously checkpointed
	// prefix: chips below Resume.Done are copied into the arena and
	// measurement starts at Done. The checkpoint's seed, size and model
	// must match the build's, and its prefix must be Done chips of its
	// geometry; Build returns an error otherwise.
	Resume *BuildCheckpoint
}

// validateResume checks that a checkpoint belongs to this build and
// that its prefix has the shape a resume copies.
func validateResume(r *BuildCheckpoint, cfg *PopulationConfig, geom sram.Geometry) error {
	switch {
	case r.Seed != cfg.Seed:
		return fmt.Errorf("core: resume checkpoint seed %d, build seed %d", r.Seed, cfg.Seed)
	case r.N != cfg.N:
		return fmt.Errorf("core: resume checkpoint for %d chips, build wants %d", r.N, cfg.N)
	case r.Geom != geom:
		return fmt.Errorf("core: resume checkpoint geometry %+v, build geometry %+v", r.Geom, geom)
	case r.Tech != *cfg.Tech:
		return fmt.Errorf("core: resume checkpoint built under a different technology model")
	}
	return r.checkShape()
}

// checkpointer drives the Sink calls for one build. It has no
// goroutine of its own and reads no clock: the build's looks offer it
// the consistent prefix on the elected worker, which assembles each
// checkpoint (into a reusable embedded BuildCheckpoint; the prefix
// slices alias the live arena) and calls the Sink synchronously.
// Enabling checkpoints therefore costs one allocation per build (this
// struct, with the look schedule embedded) besides the frontier's batch
// marks, which it shares with the estimator.
type checkpointer struct {
	schedule
	sink  func(*BuildCheckpoint) error
	last  int // prefix of the last accepted checkpoint (looker-only)
	buf   BuildCheckpoint
	chips []Chip
}

// newCheckpointer returns the checkpointer of a build resumed at base;
// nil when checkpointing is disabled for this build.
func newCheckpointer(ck *CheckpointConfig, base int, cfg *PopulationConfig,
	geom sram.Geometry, chips []Chip) *checkpointer {
	if ck == nil || ck.Sink == nil {
		return nil
	}
	return &checkpointer{
		sink: ck.Sink,
		last: base,
		buf: BuildCheckpoint{
			Seed: cfg.Seed, N: cfg.N,
			Tech: *cfg.Tech, Geom: geom,
		},
		chips: chips,
	}
}

// look hands the consistent prefix p to the Sink in the reusable
// checkpoint when p adds to the last accepted checkpoint. Nil-safe.
func (c *checkpointer) look(p int) {
	if c == nil || p <= c.last {
		return
	}
	c.buf.Done = p
	c.buf.Regular = c.chips[:p]
	if err := c.sink(&c.buf); err != nil {
		obs.C("core_checkpoint_sink_errors_total").Inc()
		return
	}
	c.last = p
}
