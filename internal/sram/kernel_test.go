package sram

import (
	"reflect"
	"testing"

	"yieldcache/internal/circuit"
	"yieldcache/internal/variation"
)

func measViews(n int, g Geometry) []*CacheMeasurement {
	ms := make([]CacheMeasurement, n)
	vs := make([]*CacheMeasurement, n)
	for i := range ms {
		Prepare(&ms[i], g)
		vs[i] = &ms[i]
	}
	return vs
}

// TestBatchKernelMatchesScalarReference pins the SoA pair kernel to
// the scalar reference implementation bit for bit, across batch widths
// around and beyond BatchWidth: every regular lane must equal the
// reference's regular measurement and every H-YAPD lane (derived from
// the regular path delays) the reference's independent H-YAPD
// measurement of the same chip, whose penalty is applied inline. Each
// chip's width-1 Measure under both organisations must agree too. This
// is the anchor that keeps the golden seed-2006 tables stable through
// the data-layout rewrite.
func TestBatchKernelMatchesScalarReference(t *testing.T) {
	m, s := evalFixture(false)
	mHor, _ := evalFixture(true)
	ev := m.NewEvaluator(s.NewScratch())
	evHor := mHor.NewEvaluator(s.NewScratch())
	ref := m.NewEvaluator(s.NewScratch())
	var wantReg, wantHor, got CacheMeasurement
	id := 0
	for _, width := range []int{1, 2, BatchWidth - 1, BatchWidth, BatchWidth + 1, 2*BatchWidth + 3} {
		ids := make([]int, width)
		for j := range ids {
			ids[j] = id
			id++
		}
		reg := measViews(width, m.Geom)
		hor := measViews(width, m.Geom)
		ev.MeasurePairBatch(ids, reg, hor)
		for j, cid := range ids {
			chip := ref.Scratch().Chip(cid)
			ref.measureRef(&chip, &wantReg, false)
			ref.measureRef(&chip, &wantHor, true)
			if !reflect.DeepEqual(wantReg, *reg[j]) {
				t.Fatalf("width=%d chip %d: regular lane diverges from scalar reference\nwant %+v\ngot  %+v",
					width, cid, wantReg, *reg[j])
			}
			if !reflect.DeepEqual(wantHor, *hor[j]) {
				t.Fatalf("width=%d chip %d: H-YAPD lane diverges from scalar reference\nwant %+v\ngot  %+v",
					width, cid, wantHor, *hor[j])
			}
			ev.Measure(&chip, &got)
			if !reflect.DeepEqual(wantReg, got) {
				t.Fatalf("chip %d: regular Measure diverges from scalar reference", cid)
			}
			evHor.Measure(&chip, &got)
			if !reflect.DeepEqual(wantHor, got) {
				t.Fatalf("chip %d: H-YAPD Measure diverges from scalar reference", cid)
			}
		}
	}
}

// TestMeasurePairBatchMatchesScalarPair pins the batched pair path on
// a scattered id set: each lane must equal the scalar reference's
// regular measurement and the H-YAPD measurement derived from it.
func TestMeasurePairBatchMatchesScalarPair(t *testing.T) {
	m, s := evalFixture(false)
	ev := m.NewEvaluator(s.NewScratch())
	ref := m.NewEvaluator(s.NewScratch())
	ids := []int{3, 7, 11, 19, 23}
	reg := measViews(len(ids), m.Geom)
	hor := measViews(len(ids), m.Geom)
	ev.MeasurePairBatch(ids, reg, hor)
	var wantReg, wantHor CacheMeasurement
	for j, cid := range ids {
		chip := ref.Scratch().Chip(cid)
		ref.measureRef(&chip, &wantReg, false)
		deriveHYAPD(&wantReg, &wantHor, m.Geom)
		if !reflect.DeepEqual(wantReg, *reg[j]) {
			t.Fatalf("chip %d: regular lane diverges from scalar pair", cid)
		}
		if !reflect.DeepEqual(wantHor, *hor[j]) {
			t.Fatalf("chip %d: H-YAPD lane diverges from scalar pair", cid)
		}
	}
}

// TestBatchZeroAlloc verifies the batched entry points are
// allocation-free once warm — the property the population builder's
// throughput depends on.
func TestBatchZeroAlloc(t *testing.T) {
	m, s := evalFixture(false)
	ev := m.NewEvaluator(s.NewScratch())
	ids := make([]int, BatchWidth)
	dst := measViews(BatchWidth, m.Geom)
	hor := measViews(BatchWidth, m.Geom)
	ev.MeasurePairBatch(ids, dst, hor)

	next := BatchWidth
	if allocs := testing.AllocsPerRun(20, func() {
		for j := range ids {
			ids[j] = next
			next++
		}
		ev.MeasurePairBatch(ids, dst, hor)
	}); allocs != 0 {
		t.Errorf("warm MeasurePairBatch allocates %.1f times per run, want 0", allocs)
	}
}

// deltaTechCases enumerates one technology perturbation per DiffTech
// classification bucket plus multi-part combinations.
func deltaTechCases() []struct {
	name string
	mut  func(*circuit.Tech)
	want TechParts
} {
	return []struct {
		name string
		mut  func(*circuit.Tech)
		want TechParts
	}{
		{"identical", func(t *circuit.Tech) {}, TechParts{}},
		{"cell-leakage", func(t *circuit.Tech) { t.CellLeakage *= 1.25 }, TechParts{LeakScale: true}},
		{"periph-frac", func(t *circuit.Tech) { t.PeripheryLeakFrac = 0.30 }, TechParts{LeakScale: true}},
		{"subvt-slope", func(t *circuit.Tech) { t.SubVtSlope = 0.030 }, TechParts{LeakFactors: true}},
		{"alpha", func(t *circuit.Tech) { t.Alpha = 1.4 }, TechParts{Delay: true}},
		{"coupling", func(t *circuit.Tech) { t.CouplingFrac = 0.40 }, TechParts{Delay: true}},
		{"diffusion", func(t *circuit.Tech) { t.DiffusionFrac = 0.50 }, TechParts{Delay: true}},
		{"sense-gain", func(t *circuit.Tech) { t.SenseMarginGain = 2.5 }, TechParts{Delay: true}},
		{"sense-max", func(t *circuit.Tech) { t.SenseMarginMax = 6 }, TechParts{Delay: true}},
		{"vdd", func(t *circuit.Tech) { t.Vdd = 0.95 }, TechParts{Delay: true, LeakFactors: true}},
		{"vt-nominal", func(t *circuit.Tech) { t.VtNominal = 0.230 }, TechParts{Delay: true, LeakFactors: true}},
		{"dibl", func(t *circuit.Tech) { t.DIBL = 0.50 }, TechParts{Delay: true, LeakFactors: true}},
		{"leak-and-delay", func(t *circuit.Tech) { t.CellLeakage *= 0.8; t.Alpha = 1.35 },
			TechParts{Delay: true, LeakScale: true}},
		{"everything", func(t *circuit.Tech) { t.Vdd = 1.05; t.CellLeakage *= 1.1; t.SubVtSlope = 0.026 },
			TechParts{Delay: true, LeakFactors: true, LeakScale: true}},
	}
}

// TestDiffTechClassification pins the part classification of every
// Tech field, and the field count itself so a new field cannot be
// added without deciding its classification (DiffTech falls back to
// re-evaluating everything for unknown solo diffs, but combined diffs
// need the explicit entry).
func TestDiffTechClassification(t *testing.T) {
	if n := reflect.TypeOf(circuit.Tech{}).NumField(); n != 11 {
		t.Fatalf("circuit.Tech has %d fields, DiffTech classifies 11: update DiffTech and this test", n)
	}
	base := circuit.PTM45()
	for _, tc := range deltaTechCases() {
		mod := base
		tc.mut(&mod)
		if got := DiffTech(base, mod); got != tc.want {
			t.Errorf("%s: DiffTech = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestEvalPairDeltaBitIdentical is the delta-build acceptance anchor:
// for every diff class, re-evaluating a retained DrawSet with only the
// touched parts must reproduce a full evaluation under the new
// technology bit for bit — both organisations, every field.
func TestEvalPairDeltaBitIdentical(t *testing.T) {
	const n = BatchWidth + 3 // cover a ragged batch too
	base := circuit.PTM45()
	mBase := NewModel(base, false)
	s := variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), 2006)
	evBase := mBase.NewEvaluator(s.NewScratch())

	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	ds := new(DrawSet)
	var ls LeakState
	baseReg := measViews(n, mBase.Geom)
	baseHor := measViews(n, mBase.Geom)
	evBase.Sample(ids, ds)
	evBase.EvalPair(ds, baseReg, baseHor, &ls)

	for _, tc := range deltaTechCases() {
		mod := base
		tc.mut(&mod)
		m2 := NewModel(mod, false)
		ev2 := m2.NewEvaluator(s.NewScratch())

		wantReg := measViews(n, m2.Geom)
		wantHor := measViews(n, m2.Geom)
		ev2.EvalPair(ds, wantReg, wantHor, nil)

		gotReg := measViews(n, m2.Geom)
		gotHor := measViews(n, m2.Geom)
		ev2.EvalPairDelta(ds, DiffTech(base, mod), baseReg, &ls, gotReg, gotHor)

		for l := 0; l < n; l++ {
			if !reflect.DeepEqual(*wantReg[l], *gotReg[l]) {
				t.Fatalf("%s: chip %d regular delta eval diverges from full eval\nwant %+v\ngot  %+v",
					tc.name, l, *wantReg[l], *gotReg[l])
			}
			if !reflect.DeepEqual(*wantHor[l], *gotHor[l]) {
				t.Fatalf("%s: chip %d H-YAPD delta eval diverges from full eval", tc.name, l)
			}
		}
	}
}
