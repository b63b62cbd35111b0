package core

import (
	"context"
	"runtime/debug"
	"testing"
	"time"
)

// armedConfig returns a PopulationConfig with estimation armed at a
// per-batch cadence (1ns interval => every deadline check fires).
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
	for _, workers := range []int{1, 2, 3, 7, 8} {
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
	reg, hor, est := res.Regular, res.Horizontal, res.Estimate
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
// loose CI target must stop the build before the full population, on a
// batch-aligned frontier, with a final half-width at or under the
// target — and the surviving prefix must be bit-identical to the same
// chips of an untruncated build.
func TestEstimateEarlyStop(t *testing.T) {
	const n = 4000
	cfg := armedConfig(n, 0, nil)
	cfg.Estimate.TargetCIWidth = 0.05
	res, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, hor, est := res.Regular, res.Horizontal, res.Estimate
	if est == nil || !est.EarlyStop {
		t.Fatalf("expected early stop, got %+v", est)
	}
	if est.Chips >= n {
		t.Fatalf("stopped at %d chips, expected fewer than %d", est.Chips, n)
	}
	if est.Chips < cfg.Estimate.MinChips {
		// MinChips was defaulted by the build; the decision frontier
		// respects the documented floor of 128.
		if est.Chips < 128 {
			t.Errorf("stopped at %d chips, below the MinChips floor", est.Chips)
		}
	}
	if est.HalfWidth > 0.05 {
		t.Errorf("final half-width %v exceeds target 0.05", est.HalfWidth)
	}
	if len(reg.Chips) != est.Chips || len(hor.Chips) != est.Chips {
		t.Fatalf("populations have %d/%d chips, estimate says %d",
			len(reg.Chips), len(hor.Chips), est.Chips)
	}
	// Chip i is a pure function of (Seed, i): the truncated prefix must
	// match an untruncated build chip for chip.
	full, _ := build(t, PopulationConfig{N: n, Seed: 2006})
	for i := range reg.Chips {
		if reg.Chips[i].Meas.LatencyPS != full.Chips[i].Meas.LatencyPS {
			t.Fatalf("truncated chip %d differs from full build", i)
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

// TestEstimateAllocBudget pins the arming cost next to the
// checkpointer's: at most 2 extra allocations per build (the estimator
// struct with its embedded snapshot buffer, and the frontier slice).
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
		t.Errorf("estimating pair build allocates %.1f times per run, plain is %.1f: estimation may add at most 2",
			withEst, plain)
	}
}
