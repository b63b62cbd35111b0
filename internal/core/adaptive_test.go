package core

import "testing"

func TestAdaptiveHybridSavesExactlyHybridChips(t *testing.T) {
	// The adaptive policy never changes *which* chips are saved, only
	// their configuration.
	pop, _ := build(t, PopulationConfig{N: 300, Seed: 2006})
	lim := DeriveLimits(pop, Nominal())
	for _, intensity := range []float64{0.1, 0.9} {
		a := AdaptiveHybrid{MemoryIntensity: intensity}
		for _, chip := range pop.Chips {
			h := Hybrid{}.Apply(chip.Meas, lim)
			got := a.Apply(chip.Meas, lim)
			if h.Saved != got.Saved {
				t.Fatalf("intensity %v chip %d: adaptive saved=%v, hybrid saved=%v",
					intensity, chip.ID, got.Saved, h.Saved)
			}
		}
	}
}

func TestAdaptiveHybridComputeBoundDisablesSlowWay(t *testing.T) {
	lim := Limits{DelayPS: 100, LeakageW: 1.0}
	m := synthChip([4]float64{110, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	// Memory-bound: keep the 5-cycle way on (fixed Hybrid behaviour).
	mem := AdaptiveHybrid{MemoryIntensity: 0.9}.Apply(m, lim)
	if !mem.Saved || mem.DisabledWay != -1 {
		t.Fatal("memory-bound policy should keep the 5-cycle way enabled")
	}
	n4, n5, _ := mem.Config.Counts()
	if n4 != 3 || n5 != 1 {
		t.Error("memory-bound config should be 3x4 + 1x5")
	}
	// Compute-bound: power the slow way down instead.
	cpu := AdaptiveHybrid{MemoryIntensity: 0.1}.Apply(m, lim)
	if !cpu.Saved || cpu.DisabledWay != 0 {
		t.Fatalf("compute-bound policy should disable the 5-cycle way: %+v", cpu)
	}
	n4, n5, _ = cpu.Config.Counts()
	if n4 != 3 || n5 != 0 {
		t.Error("compute-bound config should be 3 fast ways")
	}
}

func TestAdaptiveHybridRespectsSingleShutdown(t *testing.T) {
	lim := Limits{DelayPS: 100, LeakageW: 1.0}
	// A 6-cycle way forces the one allowed shutdown; the remaining
	// 5-cycle way must stay on even for compute-bound workloads.
	m := synthChip([4]float64{130, 110, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	out := AdaptiveHybrid{MemoryIntensity: 0.1}.Apply(m, lim)
	if !out.Saved || out.DisabledWay != 0 {
		t.Fatalf("should disable only the 6-cycle way: %+v", out)
	}
	_, n5, _ := out.Config.Counts()
	if n5 != 1 {
		t.Error("the 5-cycle way must remain enabled (single-shutdown budget)")
	}
}

func TestAdaptiveHybridLeakageGuard(t *testing.T) {
	lim := Limits{DelayPS: 100, LeakageW: 1.0}
	// Chip right at the leakage limit: compute-bound policy must not
	// disable the slow way if... actually disabling only reduces leakage,
	// so the guard is about chips where the remaining leakage cannot be
	// the binding issue. Verify the policy does not *lose* such a chip.
	m := synthChip([4]float64{110, 90, 90, 90}, [4]float64{0.25, 0.25, 0.25, 0.24})
	out := AdaptiveHybrid{MemoryIntensity: 0.1}.Apply(m, lim)
	if !out.Saved {
		t.Fatal("chip within limits must stay saved under any policy")
	}
}

func TestAdaptiveHybridPassThrough(t *testing.T) {
	m := synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	out := AdaptiveHybrid{MemoryIntensity: 0.1}.Apply(m, testLim)
	if !out.Passing || out.DisabledWay != -1 {
		t.Error("passing chips must not be touched")
	}
}

func TestLineDisable(t *testing.T) {
	lim := Limits{DelayPS: 100, LeakageW: 1.0}
	// synthChip: per way, bank b's path delay = lat - (3-b)*10. A way at
	// 105 has paths {75, 85, 95, 105}: only bank 3 violates -> 4 rows of
	// 16 disabled (25%), within the default budget.
	m := synthChip([4]float64{105, 105, 105, 105}, [4]float64{0.1, 0.1, 0.1, 0.1})
	out := LineDisable{}.Apply(m, lim)
	if !out.Saved {
		t.Fatal("line disabling should fix a one-bank-per-way violation")
	}
	// Uniformly slow ways: every path violates -> over budget.
	bad := synthChip([4]float64{160, 160, 160, 160}, [4]float64{0.1, 0.1, 0.1, 0.1})
	if out := (LineDisable{}).Apply(bad, lim); out.Saved {
		t.Error("line disabling cannot fix a uniformly slow cache")
	}
	// Leakage violations are untouchable at line granularity.
	leaky := synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.6, 0.3, 0.2, 0.2})
	if out := (LineDisable{}).Apply(leaky, lim); out.Saved {
		t.Error("line disabling cannot fix leakage")
	}
}

func TestLineDisableBudget(t *testing.T) {
	lim := Limits{DelayPS: 100, LeakageW: 1.0}
	m := synthChip([4]float64{105, 105, 105, 105}, [4]float64{0.1, 0.1, 0.1, 0.1})
	// The same chip fails under a tighter capacity budget.
	if out := (LineDisable{MaxDisabledFrac: 0.1}).Apply(m, lim); out.Saved {
		t.Error("10% budget cannot absorb 25% disabled rows")
	}
}

func TestHybridWinsSchemeShootOut(t *testing.T) {
	pop, _ := build(t, PopulationConfig{N: 300, Seed: 2006})
	lim := DeriveLimits(pop, Nominal())
	rows := BreakdownLosses(pop, lim, VACA{}, Hybrid{}, YAPD{}, LineDisable{}).Schemes
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	best := rows[0]
	for _, r := range rows[1:] {
		if r.Total < best.Total {
			best = r
		}
	}
	if best.Scheme != "Hybrid" {
		t.Errorf("Hybrid should win the shoot-out, got %s", best.Scheme)
	}
}
