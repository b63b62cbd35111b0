package core

import "testing"

func TestPerturbZeroNoiseIsIdentity(t *testing.T) {
	pop, _ := build(t, PopulationConfig{N: 10, Seed: 3})
	mm := MeasurementModel{Seed: 1}
	for _, chip := range pop.Chips {
		n := mm.Perturb(chip.ID, chip.Meas)
		if n.LatencyPS != chip.Meas.LatencyPS || n.LeakageW != chip.Meas.LeakageW {
			t.Fatal("zero-noise perturbation changed aggregates")
		}
	}
}

func TestPerturbConsistency(t *testing.T) {
	pop, _ := build(t, PopulationConfig{N: 5, Seed: 4})
	mm := MeasurementModel{LatencySigma: 0.05, LeakageSigma: 0.10, Seed: 9}
	for _, chip := range pop.Chips {
		n := mm.Perturb(chip.ID, chip.Meas)
		again := mm.Perturb(chip.ID, chip.Meas)
		if n.LatencyPS != again.LatencyPS {
			t.Fatal("perturbation not deterministic")
		}
		// Aggregates must be recomputed from the noisy parts.
		maxWay, leak := 0.0, 0.0
		for _, w := range n.Ways {
			if w.LatencyPS > maxWay {
				maxWay = w.LatencyPS
			}
			leak += w.LeakageW
			bankMax := 0.0
			for _, b := range w.Banks {
				if b.MaxPS > bankMax {
					bankMax = b.MaxPS
				}
			}
			if bankMax != w.LatencyPS {
				t.Fatal("noisy way latency inconsistent with banks")
			}
		}
		if maxWay != n.LatencyPS || !approxEq(leak, n.LeakageW) {
			t.Fatal("noisy cache aggregates inconsistent")
		}
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(a+b)
}

func TestEvaluateUnderNoisePerfectTester(t *testing.T) {
	pop, _ := build(t, PopulationConfig{N: 200, Seed: 2006})
	lim := DeriveLimits(pop, Nominal())
	out := EvaluateUnderNoise(pop, lim, Hybrid{}, MeasurementModel{Seed: 1})
	if out.Escapes != 0 || out.Overkill != 0 {
		t.Errorf("perfect tester should have no escapes/overkill: %+v", out)
	}
	if out.Shipped != out.Perfect {
		t.Errorf("perfect tester ships exactly the perfect set: %+v", out)
	}
}

func TestEvaluateUnderNoiseDegradesGracefully(t *testing.T) {
	pop, _ := build(t, PopulationConfig{N: 400, Seed: 2006})
	lim := DeriveLimits(pop, Nominal())
	mild := EvaluateUnderNoise(pop, lim, Hybrid{},
		MeasurementModel{LatencySigma: 0.01, LeakageSigma: 0.03, Seed: 1})
	harsh := EvaluateUnderNoise(pop, lim, Hybrid{},
		MeasurementModel{LatencySigma: 0.10, LeakageSigma: 0.30, Seed: 1})
	if mild.Escapes+mild.Overkill > harsh.Escapes+harsh.Overkill {
		t.Errorf("more noise should mean more misdecisions: mild %+v vs harsh %+v", mild, harsh)
	}
	if harsh.Escapes == 0 && harsh.Overkill == 0 {
		t.Error("10%/30% measurement error should cause some misdecisions")
	}
	// Escapes stay a small fraction of shipped parts even under harsh
	// noise (most chips are far from the limits).
	if harsh.Shipped > 0 && float64(harsh.Escapes)/float64(harsh.Shipped) > 0.2 {
		t.Errorf("escape rate implausibly high: %+v", harsh)
	}
}

func TestConfigValidCatchesViolations(t *testing.T) {
	lim := Limits{DelayPS: 100, LeakageW: 1.0}
	// True chip: way 0 needs 6+ cycles. A decision that binned it at 5
	// (e.g. from an optimistic measurement) is an escape.
	m := synthChip([4]float64{130, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	bad := Outcome{
		Saved:          true,
		Config:         CacheConfig{WayCycles: []int{5, 4, 4, 4}, HRegionOff: -1},
		DisabledWay:    -1,
		DisabledRegion: -1,
	}
	if configValid(m, lim, bad) {
		t.Error("a 6-cycle way shipped at 5 cycles must be flagged")
	}
	good := Outcome{
		Saved:          true,
		Config:         CacheConfig{WayCycles: []int{0, 4, 4, 4}, HRegionOff: -1},
		DisabledWay:    0,
		DisabledRegion: -1,
	}
	if !configValid(m, lim, good) {
		t.Error("powering the slow way down is a valid ship")
	}
	// Leakage: shipping all ways of an over-limit chip is an escape.
	leaky := synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.5, 0.3, 0.2, 0.2})
	all := Outcome{Saved: true, Config: BaseConfig(4), DisabledWay: -1, DisabledRegion: -1}
	if configValid(leaky, lim, all) {
		t.Error("shipping a leakage violator unmodified must be flagged")
	}
}

func TestSchemesShipOnlyValidConfigs(t *testing.T) {
	// The fundamental soundness property of every scheme: with perfect
	// measurement, any chip a scheme declares saved must, on its true
	// parameters, meet the delay limit at the shipped cycle counts and
	// the leakage limit on the enabled portion. configValid is the same
	// checker the noise study uses.
	pop, hor := build(t, PopulationConfig{N: 600, Seed: 2006})
	lim := DeriveLimits(pop, Nominal())
	vertical := []Scheme{Base{}, YAPD{}, VACA{}, Hybrid{},
		NaiveBinning{MaxCycles: 5}, NaiveBinning{MaxCycles: 6},
		AdaptiveHybrid{MemoryIntensity: 0.1}, AdaptiveHybrid{MemoryIntensity: 0.9}}
	for _, s := range vertical {
		for _, chip := range pop.Chips {
			out := s.Apply(chip.Meas, lim)
			if !out.Saved {
				continue
			}
			if !configValid(chip.Meas, lim, out) {
				t.Fatalf("%s shipped an invalid config for chip %d: %+v",
					s.Name(), chip.ID, out)
			}
		}
	}
	for _, s := range []Scheme{HYAPD{}, Hybrid{Horizontal: true}} {
		for _, chip := range hor.Chips {
			out := s.Apply(chip.Meas, lim)
			if !out.Saved || out.DisabledRegion < 0 {
				continue
			}
			if !configValid(chip.Meas, lim, out) {
				t.Fatalf("%s shipped an invalid config for chip %d: %+v",
					s.Name(), chip.ID, out)
			}
		}
	}
}
