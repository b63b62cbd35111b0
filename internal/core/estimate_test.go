package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"yieldcache/internal/sram"
)

// armedConfig returns a PopulationConfig with estimation armed and an
// unthrottled Sink (1ns interval => a snapshot at every look).
func armedConfig(n int, workers int, sink func(*YieldEstimate)) PopulationConfig {
	if sink == nil {
		sink = func(*YieldEstimate) {}
	}
	return PopulationConfig{
		N: n, Seed: 2006, Workers: workers,
		Estimate: &EstimateConfig{
			Interval:    time.Nanosecond,
			Constraints: Nominal(),
			Sink:        sink,
		},
	}
}

// TestEstimateWorkerCountIndependent pins the estimator's central
// determinism claim: the final snapshot is a pure function of the
// measured prefix, so builds differing only in worker count produce
// bit-identical final estimates (every field, intervals included).
func TestEstimateWorkerCountIndependent(t *testing.T) {
	var ref *YieldEstimate
	// 64 workers exceed the 30 batches of 240 chips.
	for _, workers := range []int{1, 2, 3, 7, 8, 64} {
		res, err := Build(context.Background(), armedConfig(240, workers, nil))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		est := res.Estimate
		if est == nil {
			t.Fatalf("workers=%d: nil final estimate", workers)
		}
		if est.Chips != 240 || est.Total != 240 || est.EarlyStop {
			t.Fatalf("workers=%d: unexpected final shape %+v", workers, est)
		}
		if ref == nil {
			ref = est
			continue
		}
		if *est != *ref {
			t.Errorf("workers=%d: final estimate differs:\n got %+v\nwant %+v", workers, est, ref)
		}
	}
}

// TestEstimateFinalMatchesTables checks that the terminal snapshot
// reproduces the table pipeline exactly: provisional limits over the
// full population equal DeriveLimits bit for bit, and the loss tallies
// equal BreakdownLosses' base column.
func TestEstimateFinalMatchesTables(t *testing.T) {
	res, err := Build(context.Background(), armedConfig(200, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	reg, est := res.Regular, res.Estimate
	cons := Nominal()
	lim := DeriveLimits(reg, cons)
	if est.Limits != lim {
		t.Errorf("final limits %+v != DeriveLimits %+v", est.Limits, lim)
	}
	bd := BreakdownLosses(reg, lim)
	if int(est.Lost) != bd.BaseTotal {
		t.Errorf("final lost %d != breakdown base total %d", est.Lost, bd.BaseTotal)
	}
	if est.Yield != bd.Yield(-1) {
		t.Errorf("final yield %v != breakdown base yield %v", est.Yield, bd.Yield(-1))
	}
	for j, r := range LossReasons() {
		if int(est.Reasons[j].Lost) != bd.Base[r] {
			t.Errorf("reason %v: estimate lost %d != breakdown %d",
				r, est.Reasons[j].Lost, bd.Base[r])
		}
		if est.Reasons[j].Reason != r {
			t.Errorf("reason slot %d holds %v, want %v", j, est.Reasons[j].Reason, r)
		}
	}
	if est.CILow > est.Yield || est.CIHigh < est.Yield {
		t.Errorf("interval [%v, %v] does not bracket yield %v", est.CILow, est.CIHigh, est.Yield)
	}
}

// TestEstimateSnapshotsMatchTablesAtEveryLook pins every snapshot a
// 2000-chip build publishes, not only the final one, to the tables
// under each constraint set: the provisional limits equal DeriveLimits
// over the prefix bit for bit, and the loss counts equal
// BreakdownLosses' base column under those limits. One worker with an
// unthrottled Sink looks at every look point, so the Sink sees one
// snapshot per look point and the final one.
func TestEstimateSnapshotsMatchTablesAtEveryLook(t *testing.T) {
	const n = 2000
	for _, c := range []Constraints{Nominal(), Relaxed(), Strict()} {
		var snaps []YieldEstimate
		cfg := armedConfig(n, 1, func(e *YieldEstimate) { snaps = append(snaps, *e) })
		cfg.Estimate.Constraints = c
		res, err := Build(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != n/lookStep+1 || snaps[len(snaps)-1].Chips != n {
			t.Fatalf("%s: %d snapshots, want one per look point and a final one over all %d chips", c.Name, len(snaps), n)
		}
		for _, est := range snaps {
			prefix := &Population{Chips: res.Regular.Chips[:est.Chips]}
			lim := DeriveLimits(prefix, c)
			if est.Limits != lim {
				t.Errorf("%s, %d chips: limits %+v != DeriveLimits %+v", c.Name, est.Chips, est.Limits, lim)
			}
			bd := BreakdownLosses(prefix, lim)
			if int(est.Lost) != bd.BaseTotal {
				t.Errorf("%s, %d chips: lost %d != breakdown base total %d", c.Name, est.Chips, est.Lost, bd.BaseTotal)
			}
			for j, r := range LossReasons() {
				if int(est.Reasons[j].Lost) != bd.Base[r] {
					t.Errorf("%s, %d chips, %v: lost %d != breakdown %d", c.Name, est.Chips, r, est.Reasons[j].Lost, bd.Base[r])
				}
			}
		}
	}
}

// TestEstimateGoldenUnaffected checks the bit-identity acceptance
// criterion: arming estimation (without a precision target) changes
// nothing about the built populations or the tables derived from them.
func TestEstimateGoldenUnaffected(t *testing.T) {
	plainReg, plainHor := build(t, PopulationConfig{N: 200, Seed: 2006})
	snapshots := 0
	armed := armedConfig(200, 0, func(*YieldEstimate) { snapshots++ })
	res, err := Build(context.Background(), armed)
	if err != nil {
		t.Fatal(err)
	}
	reg, hor, est := res.Regular, DeriveHorizontal(res.Regular), res.Estimate
	if snapshots == 0 || est == nil {
		t.Fatalf("estimation did not publish (snapshots=%d)", snapshots)
	}
	if len(reg.Chips) != len(plainReg.Chips) {
		t.Fatalf("armed build has %d chips, plain %d", len(reg.Chips), len(plainReg.Chips))
	}
	for i := range reg.Chips {
		if reg.Chips[i].Meas.LatencyPS != plainReg.Chips[i].Meas.LatencyPS ||
			reg.Chips[i].Meas.LeakageW != plainReg.Chips[i].Meas.LeakageW ||
			hor.Chips[i].Meas.LatencyPS != plainHor.Chips[i].Meas.LatencyPS {
			t.Fatalf("chip %d differs between armed and plain builds", i)
		}
	}
	lim := DeriveLimits(plainReg, Nominal())
	plainBD := BreakdownLosses(plainReg, lim, YAPD{}, VACA{}, Hybrid{})
	armedBD := BreakdownLosses(reg, DeriveLimits(reg, Nominal()), YAPD{}, VACA{}, Hybrid{})
	if plainBD.BaseTotal != armedBD.BaseTotal {
		t.Errorf("base totals differ: plain %d, armed %d", plainBD.BaseTotal, armedBD.BaseTotal)
	}
	for i := range plainBD.Schemes {
		if plainBD.Schemes[i].Total != armedBD.Schemes[i].Total {
			t.Errorf("scheme %s totals differ", plainBD.Schemes[i].Scheme)
		}
	}
}

// TestEstimateEarlyStop drives the precision-targeted stopping rule: a
// CI target must stop the build before the full population, on a
// consistent prefix, with a final half-width at or under the target —
// and every chip of both organisations in the surviving prefix must be
// bit-identical to the same chip of a fixed build. The target stops the
// build past at least two arena segments, so the prefix crosses
// segment edges that different workers wired.
func TestEstimateEarlyStop(t *testing.T) {
	const n, target = 4000, 0.02
	fullReg, fullHor := build(t, PopulationConfig{N: n, Seed: 2006})
	for _, workers := range []int{1, 2, 3} {
		cfg := armedConfig(n, workers, nil)
		cfg.Estimate.TargetCIWidth = target
		res, err := Build(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		reg, hor, est := res.Regular, DeriveHorizontal(res.Regular), res.Estimate
		if est == nil || !est.EarlyStop {
			t.Fatalf("workers=%d: expected early stop, got %+v", workers, est)
		}
		if est.Chips >= n {
			t.Fatalf("workers=%d: stopped at %d chips, expected fewer than %d", workers, est.Chips, n)
		}
		if est.Chips <= 2*chipSegment {
			t.Fatalf("workers=%d: stopped at %d chips, inside the first two segments", workers, est.Chips)
		}
		if est.Chips%lookStep != 0 {
			t.Errorf("workers=%d: stopped at %d chips, not a look point", workers, est.Chips)
		}
		if est.HalfWidth > target {
			t.Errorf("workers=%d: final half-width %v exceeds target %v", workers, est.HalfWidth, target)
		}
		if len(reg.Chips) != est.Chips || len(hor.Chips) != est.Chips {
			t.Fatalf("workers=%d: populations have %d/%d chips, estimate says %d",
				workers, len(reg.Chips), len(hor.Chips), est.Chips)
		}
		// Chip i is a pure function of (Seed, i): the truncated prefix
		// must match a fixed build chip for chip, on every field.
		measIdentical(t, "regular prefix", reg, &Population{Chips: fullReg.Chips[:est.Chips]})
		measIdentical(t, "horizontal prefix", hor, &Population{Chips: fullHor.Chips[:est.Chips]})
	}

	// More workers than batches, on one P: the first worker measures
	// batch after batch while the other started workers wait their
	// turn, and a waiting worker must not hold the prefix back. Every
	// look point is evaluated, by a worker or after the join, so a
	// loose target stops the build at its first look point, and the
	// Sink sees that look's snapshot before the final one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const small = 25 * sram.BatchWidth
	mid := 0
	cfg := armedConfig(small, 32, func(e *YieldEstimate) {
		if !e.EarlyStop && e.Chips < e.Total {
			mid++
		}
	})
	cfg.Estimate.TargetCIWidth = 0.3
	cfg.Estimate.MinChips = sram.BatchWidth
	res, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if est := res.Estimate; mid == 0 || est == nil || !est.EarlyStop || est.Chips != lookStep {
		t.Fatalf("32 workers on %d batches: %d mid-build snapshots, final %+v: want an early stop at the first look point",
			small/sram.BatchWidth, mid, est)
	}
	measIdentical(t, "regular prefix, more workers than batches", res.Regular, &Population{Chips: fullReg.Chips[:res.Estimate.Chips]})
}

// TestEstimateStopDeterministic pins that a precision stop is a
// function of its request: one seed, size and target stop at the same
// look point, with the same final estimate and the same chips, whatever
// the worker count, GOMAXPROCS or the Sink interval (an hour means no
// mid-build Sink call at all).
func TestEstimateStopDeterministic(t *testing.T) {
	const n, seed, target = 4000, 2006, 0.02
	full, _ := build(t, PopulationConfig{N: n, Seed: seed})
	request := func(workers int, interval time.Duration) PopulationConfig {
		cfg := armedConfig(n, workers, nil)
		cfg.Estimate.Interval = interval
		cfg.Estimate.TargetCIWidth = target
		return cfg
	}
	var ref *YieldEstimate
	check := func(label string, cfg PopulationConfig) {
		t.Helper()
		res, err := Build(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		est := res.Estimate
		if est == nil || !est.EarlyStop || est.Chips%lookStep != 0 {
			t.Fatalf("%s: final estimate %+v: want an early stop at a look point", label, est)
		}
		if ref == nil {
			ref = est
		} else if *est != *ref {
			t.Fatalf("%s: final estimate differs:\n got %+v\nwant %+v", label, est, ref)
		}
		measIdentical(t, label, res.Regular, &Population{Chips: full.Chips[:ref.Chips]})
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 3, 32} {
			for _, interval := range []time.Duration{time.Nanosecond, time.Millisecond, time.Hour} {
				check(fmt.Sprintf("GOMAXPROCS=%d workers=%d interval=%v", procs, workers, interval),
					request(workers, interval))
			}
		}
	}
}

// TestEstimateCancelled checks that a precision build, whose arena is
// wired segment by segment, returns ctx.Err() when its context is
// cancelled before the build starts or while it runs.
func TestEstimateCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := armedConfig(4000, 2, nil)
	cfg.Estimate.TargetCIWidth = 1e-6 // unreachable: only cancellation can end the build early
	if _, err := Build(ctx, cfg); err != context.Canceled {
		t.Errorf("build under a cancelled context: err = %v, want %v", err, context.Canceled)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	cfg = armedConfig(20000, 2, func(e *YieldEstimate) {
		if e.Chips >= 3*chipSegment {
			cancel()
		}
	})
	cfg.Estimate.TargetCIWidth = 1e-6
	if _, err := Build(ctx, cfg); err != context.Canceled {
		t.Errorf("build cancelled mid-way: err = %v, want %v", err, context.Canceled)
	}
}

// TestEstimateSnapshotCarriedSums checks that a snapshot continued
// from the previous snapshot's sums is bit-identical to one summed from
// chip 0, including a snapshot at the last one's prefix (finish at
// the stop prefix).
func TestEstimateSnapshotCarriedSums(t *testing.T) {
	reg, _ := build(t, PopulationConfig{N: 1200, Seed: 2006})
	ec := &EstimateConfig{Constraints: Nominal(), TargetCIWidth: 0.01}
	carried := newEstimator(ec, reg.Chips)
	for _, p := range []int{1, 100, 357, 800, 800, 1000, 1200} {
		carried.snapshot(p)
		fresh := newEstimator(ec, reg.Chips)
		fresh.snapshot(p)
		if carried.buf != fresh.buf {
			t.Errorf("prefix %d: carried snapshot %+v differs from fresh %+v", p, carried.buf, fresh.buf)
		}
	}
}

// TestEstimateDisabled checks the off path: no sink and no target
// means no estimator, and the entry point reports a nil estimate.
func TestEstimateDisabled(t *testing.T) {
	res, err := Build(context.Background(),
		PopulationConfig{N: 64, Seed: 9, Estimate: &EstimateConfig{Constraints: Nominal()}})
	if err != nil {
		t.Fatal(err)
	}
	reg, est := res.Regular, res.Estimate
	if est != nil {
		t.Errorf("estimate without sink or target should be nil, got %+v", est)
	}
	if len(reg.Chips) != 64 {
		t.Errorf("population truncated without a target: %d chips", len(reg.Chips))
	}
}

// TestEstimateAllocBudget pins the arming cost: at most 2 extra
// allocations per build (the estimator struct with its embedded
// snapshot buffer and frontier, and the frontier's batch marks).
func TestEstimateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is pinned by the non-race run")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := PopulationConfig{N: 200, Seed: 1, Workers: 1}
	ctx := context.Background()
	Build(ctx, cfg)
	plain := testing.AllocsPerRun(10, func() { Build(ctx, cfg) })

	armed := cfg
	armed.Estimate = &EstimateConfig{
		Interval:    time.Millisecond,
		Constraints: Nominal(),
		Sink:        func(*YieldEstimate) {},
	}
	Build(ctx, armed)
	withEst := testing.AllocsPerRun(10, func() { Build(ctx, armed) })
	if withEst > plain+2 {
		t.Errorf("estimating build allocates %.1f times per run, plain is %.1f: estimation may add at most 2",
			withEst, plain)
	}
}
