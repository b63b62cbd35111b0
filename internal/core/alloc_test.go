package core

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"yieldcache/internal/circuit"
)

// TestPairBuildAllocBudget pins the steady-state allocation budget of
// Build: at most 22 allocations per build regardless of N (the
// per-chip hot loop is allocation-free; what remains is per-build
// setup — model, the one chip arena, sampler, evaluator shell; 20 at
// the time of writing, so a second arena would not fit).
// TestEstimateAllocBudget pins what arming the estimator adds.
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
	if plain := testing.AllocsPerRun(10, func() { Build(ctx, cfg) }); plain > 22 {
		t.Errorf("build allocates %.1f times per run, budget is 22", plain)
	}
}

// TestDeltaPairAllocsConstantInN pins that a warm BuildPairCtx
// allocates only per call and per worker, never per batch: at a fixed
// worker count it allocates as often at N=640 (80 batches) as at N=64
// (8 batches). It runs on one P: with several, a worker whose P holds
// no pooled kernel scratch (another P's private slot cannot be stolen)
// now and then allocates a fresh one, which is per-worker noise, not a
// per-batch cost.
//
// Even on one P the pool misses now and then under CPU load: about 1
// run in 200 beside other packages' tests drew one fresh kernel scratch
// (about 26 allocations) in a window, and read 36 allocations per call
// at N=640 against 33 at N=64. A missed Get leaves its scratch pooled
// afterwards, so such noise lands in one window only, and each N
// reports the least of three; one allocation per batch would add 72
// per call to every window at N=640.
func TestDeltaPairAllocsConstantInN(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is pinned by the non-race run")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	tech := circuit.PTM45()
	tech.Vdd = 1.05
	allocs := func(n int) float64 {
		d, err := NewDeltaBuilderCtx(ctx, PopulationConfig{N: n, Seed: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		d.BuildPairCtx(ctx, tech) // warm the kernel buffer pool
		least := math.Inf(1)
		for w := 0; w < 3; w++ {
			least = min(least, testing.AllocsPerRun(10, func() { d.BuildPairCtx(ctx, tech) }))
		}
		return least
	}
	if small, large := allocs(64), allocs(640); small != large {
		t.Errorf("warm BuildPairCtx allocates %.1f times at N=64 but %.1f at N=640: a batch allocates", small, large)
	}
}

// TestDeltaBaseAllocsConstantInN pins that the delta builder's base
// build allocates per build and per worker, never per batch: the
// retained draws and leakage aggregates are carved from a few flat
// slabs, so NewDeltaBuilderCtx allocates as often at N=640 (80 batches)
// as at N=64 (8 batches). One P, GC off and the least of three windows,
// as in TestDeltaPairAllocsConstantInN: beside other packages' tests,
// 46 of 300 runs drew one fresh kernel scratch in a single window and
// read 41 allocations per call at N=640 against 35 at N=64.
func TestDeltaBaseAllocsConstantInN(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is pinned by the non-race run")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	allocs := func(n int) float64 {
		cfg := PopulationConfig{N: n, Seed: 1, Workers: 2}
		least := math.Inf(1)
		for w := 0; w < 3; w++ {
			least = min(least, testing.AllocsPerRun(5, func() {
				if _, err := NewDeltaBuilderCtx(ctx, cfg); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	if small, large := allocs(64), allocs(640); small != large {
		t.Errorf("NewDeltaBuilderCtx allocates %.1f times at N=64 but %.1f at N=640: a batch allocates", small, large)
	}
}

// TestDeltaBuildBytesConstantInN pins that a warm BuildCtx allocates no
// chip storage: it evaluates into the builder's one reused arena, so
// it allocates the same bytes at N=640 as at N=64. One P and GC off, as
// in TestDeltaPairAllocsConstantInN.
//
// TotalAlloc counts the whole process, so a one-off runtime allocation
// can land in a measured window: the runtime filling math/rand.New's
// type-assertion cache (48 bytes, once, on a random slow-path call) or
// starting a thread did so about once in 200 runs. Such noise only
// adds, so each N reports the least of three windows; a call that
// allocated chip storage would add it to every window.
func TestDeltaBuildBytesConstantInN(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is pinned by the non-race run")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	tech := circuit.PTM45()
	tech.Vdd = 1.05
	bytes := func(n int) uint64 {
		d, err := NewDeltaBuilderCtx(ctx, PopulationConfig{N: n, Seed: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		d.BuildCtx(ctx, tech) // wire the arena and warm the kernel buffer pool
		least := uint64(math.MaxUint64)
		for w := 0; w < 3; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 10; i++ {
				d.BuildCtx(ctx, tech)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	if small, large := bytes(64), bytes(640); small != large {
		t.Errorf("10 warm BuildCtx calls allocate %d bytes at N=64 but %d at N=640: a call allocates chip storage", small, large)
	}
}

// TestPrecisionBuildBytesTrackPrefix pins that a build which can stop
// early pays for the chips it keeps: a precision build of N=20000 at
// ±1% allocates at most 1.5× the bytes of a fixed build of its stop
// prefix. Wiring both chip arenas for all N up front cost about 3.5×.
func TestPrecisionBuildBytesTrackPrefix(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is pinned by the non-race run")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	allocBytes := func(cfg PopulationConfig) (uint64, BuildResult) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Build(ctx, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, res
	}
	precise, res := allocBytes(PopulationConfig{N: 20000, Seed: 1, Workers: 2, Estimate: &EstimateConfig{
		Interval:      time.Millisecond,
		Constraints:   Nominal(),
		TargetCIWidth: 0.01,
	}})
	if res.Estimate == nil || !res.Estimate.EarlyStop {
		t.Fatalf("precision build did not stop early: %+v", res.Estimate)
	}
	fixed, _ := allocBytes(PopulationConfig{N: res.Estimate.Chips, Seed: 1, Workers: 2})
	if float64(precise) > 1.5*float64(fixed) {
		t.Errorf("precision build stopping at %d of 20000 chips allocated %.1f MB, a fixed build of %d chips %.1f MB: budget is 1.5×",
			res.Estimate.Chips, float64(precise)/1e6, res.Estimate.Chips, float64(fixed)/1e6)
	}
}
