package core

import (
	"context"
	"runtime/debug"
	"testing"
	"time"
)

// TestPairBuildAllocBudget pins the steady-state allocation budget of
// Build: at most 28 allocations per build regardless of N
// (the per-chip hot loop is allocation-free; what remains is per-build
// setup — models, arenas, sampler, evaluator shell), and arming the
// checkpointer may add at most 2 more (its struct and frontier).
//
// GC is disabled for the measurement because the kernel's pooled
// buffers live in a sync.Pool, which a collection may clear; the
// budget is about what the code allocates, not about GC timing.
func TestPairBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is pinned by the non-race run")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := PopulationConfig{N: 200, Seed: 1, Workers: 1}
	ctx := context.Background()
	Build(ctx, cfg) // warm the kernel buffer pool
	plain := testing.AllocsPerRun(10, func() { Build(ctx, cfg) })
	if plain > 28 {
		t.Errorf("pair build allocates %.1f times per run, budget is 28", plain)
	}

	ck := cfg
	ck.Checkpoint = &CheckpointConfig{
		Interval: time.Millisecond,
		Sink:     func(*BuildCheckpoint) error { return nil },
	}
	Build(ctx, ck)
	withCk := testing.AllocsPerRun(10, func() { Build(ctx, ck) })
	if withCk > plain+2 {
		t.Errorf("checkpointed pair build allocates %.1f times per run, plain is %.1f: checkpointing may add at most 2",
			withCk, plain)
	}
}
