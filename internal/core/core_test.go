package core

import (
	"math"
	"testing"

	"yieldcache/internal/sram"
)

// synthChip builds a measurement with the given per-way latencies (ps)
// and leakages (W). Each way gets 4 banks whose max path equals the way
// latency, with earlier banks slightly faster, and array leakage spread
// evenly across banks plus a small periphery.
func synthChip(lat [4]float64, leak [4]float64) sram.CacheMeasurement {
	var cm sram.CacheMeasurement
	cm.Ways = make([]sram.WayMeasurement, 4)
	for w := 0; w < 4; w++ {
		wm := sram.WayMeasurement{Banks: make([]sram.BankMeasurement, 4)}
		wm.PeriphLeakW = leak[w] * 0.2
		for b := 0; b < 4; b++ {
			d := lat[w] - float64(3-b)*10 // bank 3 is the critical one
			wm.Banks[b] = sram.BankMeasurement{
				Paths:      []sram.PathMeasurement{{Bank: b, Slot: 0, DelayPS: d}},
				MaxPS:      d,
				ArrayLeakW: leak[w] * 0.2,
			}
		}
		wm.LatencyPS = lat[w]
		wm.LeakageW = leak[w]
		cm.Ways[w] = wm
		if lat[w] > cm.LatencyPS {
			cm.LatencyPS = lat[w]
		}
		cm.LeakageW += leak[w]
	}
	return cm
}

var testLim = Limits{DelayPS: 100, LeakageW: 1.0}

func TestConstraintSets(t *testing.T) {
	if n := Nominal(); n.DelaySigmaK != 1 || n.LeakageMult != 3 {
		t.Errorf("nominal constraints wrong: %+v", n)
	}
	if r := Relaxed(); r.DelaySigmaK != 1.5 || r.LeakageMult != 4 {
		t.Errorf("relaxed constraints wrong: %+v", r)
	}
	if s := Strict(); s.DelaySigmaK != 0.5 || s.LeakageMult != 2 {
		t.Errorf("strict constraints wrong: %+v", s)
	}
}

func TestWayCycles(t *testing.T) {
	lim := Limits{DelayPS: 400} // cycle time 100ps
	cases := []struct {
		lat  float64
		want int
	}{
		{300, 4}, {400, 4}, {400.1, 5}, {500, 5}, {500.1, 6}, {900, 9},
	}
	for _, c := range cases {
		if got := lim.WayCycles(c.lat); got != c.want {
			t.Errorf("WayCycles(%v) = %d, want %d", c.lat, got, c.want)
		}
	}
	if ct := lim.CycleTimePS(); ct != 100 {
		t.Errorf("CycleTimePS = %v, want 100", ct)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		m    sram.CacheMeasurement
		want LossReason
	}{
		{"pass", synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1}), LossNone},
		{"leak", synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.5, 0.5, 0.1, 0.1}), LossLeakage},
		{"leak priority over delay", synthChip([4]float64{150, 90, 90, 90}, [4]float64{0.5, 0.5, 0.1, 0.1}), LossLeakage},
		{"1 way", synthChip([4]float64{150, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1}), LossDelay1},
		{"2 ways", synthChip([4]float64{150, 110, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1}), LossDelay2},
		{"3 ways", synthChip([4]float64{150, 110, 101, 90}, [4]float64{0.1, 0.1, 0.1, 0.1}), LossDelay3},
		{"4 ways", synthChip([4]float64{150, 110, 101, 101}, [4]float64{0.1, 0.1, 0.1, 0.1}), LossDelay4},
	}
	for _, c := range cases {
		if got := Classify(c.m, testLim); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLossReasonStrings(t *testing.T) {
	if LossLeakage.String() != "Leakage Constraint" {
		t.Error("leakage reason label wrong")
	}
	if LossDelay3.String() != "Delay Constraint (3 Way)" {
		t.Errorf("delay reason label wrong: %q", LossDelay3.String())
	}
	if len(LossReasons()) != 5 {
		t.Error("LossReasons should list the 5 table rows")
	}
}

func TestBaseScheme(t *testing.T) {
	pass := synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	out := Base{}.Apply(pass, testLim)
	if !out.Saved || !out.Passing {
		t.Error("base scheme should pass a conforming chip")
	}
	if out.Config.EnabledWays() != 4 || out.Config.EffectiveAssoc() != 4 {
		t.Error("passing config should keep 4 ways")
	}
	fail := synthChip([4]float64{150, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	if out := (Base{}).Apply(fail, testLim); out.Saved {
		t.Error("base scheme cannot save a failing chip")
	}
}

func TestYAPDSavesOneSlowWay(t *testing.T) {
	m := synthChip([4]float64{150, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	out := YAPD{}.Apply(m, testLim)
	if !out.Saved || out.Passing {
		t.Fatal("YAPD should save a single-way delay violator")
	}
	if out.DisabledWay != 0 {
		t.Errorf("YAPD disabled way %d, want the slow way 0", out.DisabledWay)
	}
	if out.Config.EnabledWays() != 3 {
		t.Error("saved config should have 3 ways")
	}
	n4, n5, n6 := out.Config.Counts()
	if n4 != 3 || n5 != 0 || n6 != 0 {
		t.Errorf("saved config counts = %d-%d-%d, want 3-0-0", n4, n5, n6)
	}
}

func TestYAPDCannotSaveTwoSlowWays(t *testing.T) {
	m := synthChip([4]float64{150, 140, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	if out := (YAPD{}).Apply(m, testLim); out.Saved {
		t.Error("YAPD is limited to a single way shutdown")
	}
}

func TestYAPDSavesLeakage(t *testing.T) {
	// Total leakage 1.3 > 1.0; dropping the leakiest way (0.6) fixes it.
	m := synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.6, 0.3, 0.2, 0.2})
	out := YAPD{}.Apply(m, testLim)
	if !out.Saved {
		t.Fatal("YAPD should save a leakage violator by dropping the leakiest way")
	}
	if out.DisabledWay != 0 {
		t.Errorf("disabled way %d, want leakiest way 0", out.DisabledWay)
	}
}

func TestYAPDLeakageBeyondRescue(t *testing.T) {
	m := synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.6, 0.6, 0.5, 0.5})
	if out := (YAPD{}).Apply(m, testLim); out.Saved {
		t.Error("dropping one way cannot fix a 2.2x over-limit leakage")
	}
}

func TestYAPDCombinedLeakAndDelaySameWay(t *testing.T) {
	// Way 0 is both the slow way and the leaky way: one shutdown fixes both.
	m := synthChip([4]float64{150, 90, 90, 90}, [4]float64{0.5, 0.2, 0.2, 0.2})
	out := YAPD{}.Apply(m, testLim)
	if !out.Saved || out.DisabledWay != 0 {
		t.Error("YAPD should fix combined leak+delay when one way causes both")
	}
	// Different ways cause the two violations: unfixable with one shutdown
	// (dropping the slow way leaves 1.1 of leakage; dropping the leaky way
	// leaves the slow way violating).
	m2 := synthChip([4]float64{150, 90, 90, 90}, [4]float64{0.1, 0.7, 0.2, 0.2})
	if out := (YAPD{}).Apply(m2, testLim); out.Saved {
		t.Error("YAPD cannot fix leak and delay living in different ways")
	}
}

func TestHYAPDSavesRegionConcentratedViolation(t *testing.T) {
	// synthChip puts every way's critical path in bank 3, 10ps/bank apart.
	// A way at 105ps violates; removing region 3 leaves 95ps -> saved.
	m := synthChip([4]float64{105, 104, 103, 102}, [4]float64{0.1, 0.1, 0.1, 0.1})
	out := HYAPD{}.Apply(m, testLim)
	if !out.Saved {
		t.Fatal("H-YAPD should save a 4-way violation concentrated in one region")
	}
	if out.DisabledRegion != 3 {
		t.Errorf("disabled region %d, want the critical region 3", out.DisabledRegion)
	}
	if out.Config.EffectiveAssoc() != 3 {
		t.Error("H-YAPD config should behave as a 3-way cache")
	}
	if out.Config.EnabledWays() != 4 {
		t.Error("H-YAPD keeps all vertical ways powered")
	}
	// Note YAPD cannot save this chip: 4 ways violate.
	if out := (YAPD{}).Apply(m, testLim); out.Saved {
		t.Error("YAPD should not be able to save a 4-way violation")
	}
}

func TestHYAPDCannotFixWayUniformSlowness(t *testing.T) {
	// A way slow by more than the 10ps inter-bank spread cannot be fixed
	// by removing one region.
	m := synthChip([4]float64{140, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	if out := (HYAPD{}).Apply(m, testLim); out.Saved {
		t.Error("H-YAPD cannot fix a uniformly slow way")
	}
}

func TestHYAPDLeakagePeripheryStays(t *testing.T) {
	// Each way: leak 0.3, of which 0.06 periphery and 0.06 per bank array.
	// Total 1.2 > 1.0. Removing one region saves 4*0.06 = 0.24 -> 0.96 ok.
	m := synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.3, 0.3, 0.3, 0.3})
	out := HYAPD{}.Apply(m, testLim)
	if !out.Saved {
		t.Fatal("H-YAPD should shave leakage by dropping one region's arrays")
	}
	// 1.25x over: one region (20% of total) is not enough: 1.25*0.8 = 1.0... use 1.3x.
	m2 := synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.33, 0.33, 0.33, 0.33})
	if out := (HYAPD{}).Apply(m2, testLim); out.Saved {
		t.Error("H-YAPD cannot gate the periphery, so a 1.32x leakage chip is lost")
	}
}

func TestVACA(t *testing.T) {
	lim := Limits{DelayPS: 100, LeakageW: 1.0} // cycle 25ps; 5 cycles covers 125ps
	// One way at 110ps -> 5 cycles: saved, no way disabled.
	m := synthChip([4]float64{110, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	out := VACA{}.Apply(m, lim)
	if !out.Saved || out.DisabledWay != -1 {
		t.Fatal("VACA should save a 5-cycle way without disabling anything")
	}
	n4, n5, n6 := out.Config.Counts()
	if n4 != 3 || n5 != 1 || n6 != 0 {
		t.Errorf("VACA config = %d-%d-%d, want 3-1-0", n4, n5, n6)
	}
	// A 6-cycle way (>125ps) is beyond the single-entry buffers.
	m6 := synthChip([4]float64{130, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	if out := (VACA{}).Apply(m6, lim); out.Saved {
		t.Error("VACA cannot save a 6-cycle way")
	}
	// VACA does not address leakage at all.
	mL := synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.6, 0.3, 0.2, 0.2})
	if out := (VACA{}).Apply(mL, lim); out.Saved {
		t.Error("VACA cannot save a leakage violator")
	}
}

func TestVACAAllWaysFiveCycles(t *testing.T) {
	lim := Limits{DelayPS: 100, LeakageW: 1.0}
	m := synthChip([4]float64{110, 112, 114, 116}, [4]float64{0.1, 0.1, 0.1, 0.1})
	out := VACA{}.Apply(m, lim)
	if !out.Saved {
		t.Fatal("VACA should save an all-5-cycle chip")
	}
	n4, n5, n6 := out.Config.Counts()
	if n4 != 0 || n5 != 4 || n6 != 0 {
		t.Errorf("config = %d-%d-%d, want 0-4-0", n4, n5, n6)
	}
}

func TestHybridKeepsWaysOn(t *testing.T) {
	lim := Limits{DelayPS: 100, LeakageW: 1.0}
	// Paper Section 5.2: for 3-1-0 the Hybrid keeps the 5-cycle way
	// enabled and behaves like VACA.
	m := synthChip([4]float64{110, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	out := Hybrid{}.Apply(m, lim)
	if !out.Saved || out.DisabledWay != -1 {
		t.Fatal("Hybrid must keep ways on when VACA suffices")
	}
	n4, n5, _ := out.Config.Counts()
	if n4 != 3 || n5 != 1 {
		t.Error("Hybrid 3-1-0 config should match VACA")
	}
}

func TestHybridDisablesSixCycleWay(t *testing.T) {
	lim := Limits{DelayPS: 100, LeakageW: 1.0}
	// 3-0-1: disable the 6-cycle way, run the rest at 4 (like YAPD).
	m := synthChip([4]float64{130, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	out := Hybrid{}.Apply(m, lim)
	if !out.Saved || out.DisabledWay != 0 {
		t.Fatal("Hybrid should disable the 6-cycle way")
	}
	n4, n5, n6 := out.Config.Counts()
	if n4 != 3 || n5 != 0 || n6 != 0 {
		t.Errorf("config = %d-%d-%d, want 3-0-0 enabled", n4, n5, n6)
	}
	// 2-1-1: disable the 6-cycle way, keep the 5-cycle one.
	m211 := synthChip([4]float64{130, 110, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	out = Hybrid{}.Apply(m211, lim)
	if !out.Saved || out.DisabledWay != 0 {
		t.Fatal("Hybrid should disable only the 6-cycle way of a 2-1-1 chip")
	}
	n4, n5, n6 = out.Config.Counts()
	if n4 != 2 || n5 != 1 || n6 != 0 {
		t.Errorf("config = %d-%d-%d, want 2-1-0 enabled", n4, n5, n6)
	}
	// Two 6-cycle ways: lost (at most one shutdown).
	m2 := synthChip([4]float64{130, 128, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	if out := (Hybrid{}).Apply(m2, lim); out.Saved {
		t.Error("Hybrid cannot save two 6-cycle ways")
	}
}

func TestHybridLeakage(t *testing.T) {
	lim := Limits{DelayPS: 100, LeakageW: 1.0}
	// Leakage violator with a 5-cycle way: drop the leakiest way, keep
	// the 5-cycle way enabled under VACA.
	m := synthChip([4]float64{110, 90, 90, 90}, [4]float64{0.1, 0.6, 0.2, 0.2})
	out := Hybrid{}.Apply(m, lim)
	if !out.Saved || out.DisabledWay != 1 {
		t.Fatalf("Hybrid should drop the leakiest way, got disabled=%d saved=%v", out.DisabledWay, out.Saved)
	}
	n4, n5, _ := out.Config.Counts()
	if n4 != 2 || n5 != 1 {
		t.Error("remaining ways should be 2x4cyc + 1x5cyc")
	}
}

func TestHybridHorizontal(t *testing.T) {
	lim := Limits{DelayPS: 100, LeakageW: 1.0}
	// All ways 5-cycle-violating via the critical region: removing region
	// 3 turns a 0-0-4... here 126ps = 6 cycles; region off -> 116 = 5 cycles.
	m := synthChip([4]float64{126, 126, 126, 126}, [4]float64{0.1, 0.1, 0.1, 0.1})
	out := Hybrid{Horizontal: true}.Apply(m, lim)
	if !out.Saved || out.DisabledRegion != 3 {
		t.Fatalf("horizontal Hybrid should cut region 3: %+v", out)
	}
	n4, n5, n6 := out.Config.Counts()
	if n4 != 0 || n5 != 4 || n6 != 0 {
		t.Errorf("post-shutdown cycles = %d-%d-%d, want 0-4-0", n4, n5, n6)
	}
}

func TestNaiveBinning(t *testing.T) {
	lim := Limits{DelayPS: 100, LeakageW: 1.0}
	m := synthChip([4]float64{110, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	out := NaiveBinning{MaxCycles: 5}.Apply(m, lim)
	if !out.Saved {
		t.Fatal("naive binning should sell the chip in the 5-cycle bin")
	}
	for _, cy := range out.Config.WayCycles {
		if cy != 5 {
			t.Fatalf("naive binning must run ALL ways at the worst latency, got %v", out.Config.WayCycles)
		}
	}
	if out := (NaiveBinning{MaxCycles: 5}).Apply(synthChip([4]float64{130, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1}), lim); out.Saved {
		t.Error("a 6-cycle chip does not fit the 5-cycle bin")
	}
	if out := (NaiveBinning{MaxCycles: 6}).Apply(synthChip([4]float64{130, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1}), lim); !out.Saved {
		t.Error("the 6-cycle bin should take a 6-cycle chip")
	}
}

func TestSchemesPassThroughConformingChips(t *testing.T) {
	m := synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})
	for _, s := range []Scheme{Base{}, YAPD{}, HYAPD{}, VACA{}, Hybrid{}, Hybrid{Horizontal: true}, NaiveBinning{MaxCycles: 5}} {
		out := s.Apply(m, testLim)
		if !out.Saved || !out.Passing {
			t.Errorf("%s altered a passing chip: %+v", s.Name(), out)
		}
		if out.DisabledWay != -1 || out.DisabledRegion != -1 {
			t.Errorf("%s took action on a passing chip", s.Name())
		}
	}
}

func TestSchemeDominance(t *testing.T) {
	// Structural invariants across a random-ish set of synthetic chips:
	// Hybrid saves everything YAPD or VACA saves; every scheme saves
	// passing chips.
	lats := []float64{90, 95, 101, 105, 110, 118, 126, 140}
	leaks := []float64{0.1, 0.2, 0.3, 0.4}
	lim := Limits{DelayPS: 100, LeakageW: 1.0}
	for _, l0 := range lats {
		for _, l1 := range lats {
			for _, k0 := range leaks {
				m := synthChip([4]float64{l0, l1, 95, 93}, [4]float64{k0, 0.2, 0.15, 0.15})
				y := YAPD{}.Apply(m, lim)
				v := VACA{}.Apply(m, lim)
				h := Hybrid{}.Apply(m, lim)
				if (y.Saved || v.Saved) && !h.Saved {
					t.Fatalf("Hybrid failed a chip YAPD/VACA saves: lat=%v,%v leak=%v", l0, l1, k0)
				}
				hh := Hybrid{Horizontal: true}.Apply(m, lim)
				hy := HYAPD{}.Apply(m, lim)
				if (hy.Saved || v.Saved) && !hh.Saved {
					t.Fatalf("Hybrid(H) failed a chip H-YAPD/VACA saves: lat=%v,%v leak=%v", l0, l1, k0)
				}
			}
		}
	}
}

func TestBreakdownLosses(t *testing.T) {
	pop := &Population{Chips: []Chip{
		{ID: 0, Meas: synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})},   // pass
		{ID: 1, Meas: synthChip([4]float64{150, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})},  // 1-way
		{ID: 2, Meas: synthChip([4]float64{150, 140, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})}, // 2-way
		{ID: 3, Meas: synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.6, 0.3, 0.2, 0.2})},   // leakage
	}}
	bd := BreakdownLosses(pop, testLim, YAPD{}, VACA{})
	if bd.BaseTotal != 3 {
		t.Fatalf("base total = %d, want 3", bd.BaseTotal)
	}
	if bd.Base[LossDelay1] != 1 || bd.Base[LossDelay2] != 1 || bd.Base[LossLeakage] != 1 {
		t.Errorf("base breakdown wrong: %+v", bd.Base)
	}
	// YAPD saves the 1-way and leakage chips, not the 2-way chip.
	if bd.Schemes[0].Total != 1 || bd.Schemes[0].ByReason[LossDelay2] != 1 {
		t.Errorf("YAPD losses wrong: %+v", bd.Schemes[0])
	}
	// VACA: 150ps = 6 cycles -> loses chips 1 and 2; loses the leakage chip.
	if bd.Schemes[1].Total != 3 {
		t.Errorf("VACA losses = %d, want 3", bd.Schemes[1].Total)
	}
	if y := bd.Yield(-1); math.Abs(y-0.25) > 1e-12 {
		t.Errorf("base yield = %v, want 0.25", y)
	}
	if y := bd.Yield(0); math.Abs(y-0.75) > 1e-12 {
		t.Errorf("YAPD yield = %v, want 0.75", y)
	}
	if r := bd.LossReduction(0); math.Abs(r-2.0/3.0) > 1e-12 {
		t.Errorf("YAPD loss reduction = %v, want 2/3", r)
	}
}

func TestSavedConfigurations(t *testing.T) {
	lim := Limits{DelayPS: 100, LeakageW: 1.0}
	pop := &Population{Chips: []Chip{
		{ID: 0, Meas: synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})},   // pass: excluded
		{ID: 1, Meas: synthChip([4]float64{110, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})},  // 3-1-0
		{ID: 2, Meas: synthChip([4]float64{112, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})},  // 3-1-0
		{ID: 3, Meas: synthChip([4]float64{130, 90, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})},  // 3-0-1
		{ID: 4, Meas: synthChip([4]float64{90, 90, 90, 90}, [4]float64{0.6, 0.3, 0.2, 0.2})},   // 4-0-0 leak
		{ID: 5, Meas: synthChip([4]float64{130, 128, 90, 90}, [4]float64{0.1, 0.1, 0.1, 0.1})}, // unsaved
	}}
	rows := SavedConfigurations(pop, lim, Hybrid{})
	want := map[ConfigKey]int{
		{N4: 3, N5: 1, N6: 0}: 2,
		{N4: 3, N5: 0, N6: 1}: 1,
		{N4: 4, N5: 0, N6: 0}: 1,
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(rows), len(want), rows)
	}
	total := 0
	for _, r := range rows {
		if want[r.Key] != r.Chips {
			t.Errorf("row %+v: chips = %d, want %d", r.Key, r.Chips, want[r.Key])
		}
		if (r.Key == ConfigKey{N4: 4}) && !r.LeakageLimited {
			t.Error("the 4-0-0 row should be leakage-limited")
		}
		total += r.Chips
	}
	if total != 4 {
		t.Errorf("total saved = %d, want 4", total)
	}
}

func TestBuildDeterministicAndParallel(t *testing.T) {
	cfg := PopulationConfig{N: 50, Seed: 123}
	a, _ := build(t, cfg)
	b, _ := build(t, cfg)
	if len(a.Chips) != 50 {
		t.Fatalf("population size = %d", len(a.Chips))
	}
	for i := range a.Chips {
		if a.Chips[i].Meas.LatencyPS != b.Chips[i].Meas.LatencyPS {
			t.Fatalf("chip %d differs across identical builds", i)
		}
		if a.Chips[i].ID != i {
			t.Fatalf("chip %d has ID %d", i, a.Chips[i].ID)
		}
	}
}

func TestRegularAndHYAPDShareDraws(t *testing.T) {
	reg, hor := build(t, PopulationConfig{N: 30, Seed: 7})
	for i := range reg.Chips {
		ratio := hor.Chips[i].Meas.LatencyPS / reg.Chips[i].Meas.LatencyPS
		if math.Abs(ratio-sram.HYAPDLatencyPenalty) > 1e-9 {
			t.Fatalf("chip %d: H/regular latency ratio %v, want the 2.5%% penalty", i, ratio)
		}
	}
}

func TestDeriveLimits(t *testing.T) {
	pop, _ := build(t, PopulationConfig{N: 200, Seed: 9})
	nom := DeriveLimits(pop, Nominal())
	rel := DeriveLimits(pop, Relaxed())
	str := DeriveLimits(pop, Strict())
	if !(str.DelayPS < nom.DelayPS && nom.DelayPS < rel.DelayPS) {
		t.Error("delay limits should order strict < nominal < relaxed")
	}
	if !(str.LeakageW < nom.LeakageW && nom.LeakageW < rel.LeakageW) {
		t.Error("leakage limits should order strict < nominal < relaxed")
	}
}

func TestScatter(t *testing.T) {
	pop, _ := build(t, PopulationConfig{N: 100, Seed: 5})
	lim := DeriveLimits(pop, Nominal())
	pts := pop.Scatter(lim)
	if len(pts) != 100 {
		t.Fatalf("scatter has %d points", len(pts))
	}
	mean := 0.0
	for _, p := range pts {
		mean += p.NormalizedLeakage
		if p.LatencyPS <= 0 {
			t.Fatal("non-positive latency in scatter")
		}
	}
	if math.Abs(mean/100-1) > 1e-9 {
		t.Errorf("normalized leakage mean = %v, want 1", mean/100)
	}
}

func TestTotalsUnderConstraints(t *testing.T) {
	pop, _ := build(t, PopulationConfig{N: 300, Seed: 11})
	rows := TotalsUnderConstraints(pop, pop, []Constraints{Relaxed(), Strict()}, YAPD{}, VACA{}, Hybrid{})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Base >= rows[1].Base {
		t.Errorf("relaxed base losses (%d) should be below strict (%d)", rows[0].Base, rows[1].Base)
	}
	for _, r := range rows {
		for _, s := range r.Schemes {
			if s.Total > r.Base {
				t.Errorf("%s under %s lost more than base", s.Scheme, r.Constraint.Name)
			}
		}
	}
}
