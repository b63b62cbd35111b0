package sram

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
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

// measureBatch measures chips ids into reg the way the population
// builder measures a batch: Sample into the evaluator's own draw set,
// then Eval it.
func measureBatch(ev *Evaluator, ids []int, reg []*CacheMeasurement) {
	ds := ev.Draws()
	ev.Sample(ids, ds)
	ev.Eval(ds, reg, nil)
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
		measureBatch(ev, ids, reg)
		for j, cid := range ids {
			DeriveHYAPD(reg[j], hor[j], m.Geom)
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

// TestSampleEvalMatchesScalarPair pins the batched path on a scattered
// id set: each lane must equal the scalar reference's regular
// measurement, and the H-YAPD measurement derived from the lane the one
// derived from the reference.
func TestSampleEvalMatchesScalarPair(t *testing.T) {
	m, s := evalFixture(false)
	ev := m.NewEvaluator(s.NewScratch())
	ref := m.NewEvaluator(s.NewScratch())
	ids := []int{3, 7, 11, 19, 23}
	reg := measViews(len(ids), m.Geom)
	hor := measViews(len(ids), m.Geom)
	measureBatch(ev, ids, reg)
	var wantReg, wantHor CacheMeasurement
	for j, cid := range ids {
		DeriveHYAPD(reg[j], hor[j], m.Geom)
		chip := ref.Scratch().Chip(cid)
		ref.measureRef(&chip, &wantReg, false)
		DeriveHYAPD(&wantReg, &wantHor, m.Geom)
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
	pair := func() {
		measureBatch(ev, ids, dst)
		for j := range dst {
			DeriveHYAPD(dst[j], hor[j], m.Geom)
		}
	}
	pair()

	next := BatchWidth
	if allocs := testing.AllocsPerRun(20, func() {
		for j := range ids {
			ids[j] = next
			next++
		}
		pair()
	}); allocs != 0 {
		t.Errorf("warm Sample, Eval and DeriveHYAPD allocate %.1f times per run, want 0", allocs)
	}
}

// TestRetainedBatchesZeroAlloc pins the carved retained storage: on a
// ragged chip count at a non-paper geometry, sampling and evaluating
// every batch into it allocates nothing, and its draws and leakage
// aggregates equal those of freshly allocated sets.
func TestRetainedBatchesZeroAlloc(t *testing.T) {
	const n = 3*BatchWidth + 5
	m := NewModel(circuit.PTM45(), false)
	m.Geom = Geometry{Ways: 3, BanksPerWay: 2, RowsPerBank: 64, BitsPerRow: 64, PathsPerBank: 5}
	s := variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), 2006)
	ev := m.NewEvaluator(s.NewScratch())
	defer ev.Release()
	sets, leaks := RetainedBatches(n, m.Geom)
	if len(sets) != (n+BatchWidth-1)/BatchWidth || len(leaks) != len(sets) {
		t.Fatalf("RetainedBatches(%d) = %d sets, %d leak states", n, len(sets), len(leaks))
	}
	dst := measViews(BatchWidth, m.Geom)
	ids := make([]int, BatchWidth)
	fill := func(k int) []int {
		lo := k * BatchWidth
		bn := min(BatchWidth, n-lo)
		for j := 0; j < bn; j++ {
			ids[j] = lo + j
		}
		return ids[:bn]
	}
	// Warm the kernel columns on throwaway sets, then count the
	// allocations of the first pass into the carved ones: a batch
	// carved too small would allocate there, and only there.
	warm := new(DrawSet)
	ev.Sample(fill(0), warm)
	ev.Eval(warm, dst, new(LeakState))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := range sets {
		b := fill(k)
		ev.Sample(b, &sets[k])
		ev.Eval(&sets[k], dst[:len(b)], &leaks[k])
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("sampling and evaluating into retained batches allocates %d times, want 0", allocs)
	}
	for k := range sets {
		b := fill(k)
		want, wantLeak := new(DrawSet), new(LeakState)
		ev.Sample(b, want)
		ev.Eval(want, dst[:len(b)], wantLeak)
		if !reflect.DeepEqual(sets[k].IDs, want.IDs) || !reflect.DeepEqual(sets[k].Chips, want.Chips) ||
			!reflect.DeepEqual(sets[k].Bands, want.Bands) || !reflect.DeepEqual(sets[k].BankBands, want.BankBands) ||
			!reflect.DeepEqual(sets[k].Ways, want.Ways) || !reflect.DeepEqual(leaks[k], *wantLeak) {
			t.Fatalf("batch %d: retained draws or leakage aggregates differ from fresh ones", k)
		}
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

// TestEvalDeltaBitIdentical is the delta-build acceptance anchor: for
// every diff class, re-evaluating a retained DrawSet with only the
// touched parts must reproduce the regular half of a full EvalPair
// under the new technology bit for bit, every field. The destination
// lanes are reused across classes, so a value one class leaves behind
// that the next fails to overwrite fails too. The H-YAPD half is
// derived from the regular one (DeriveHYAPD) and is pinned by the
// delta builder's BuildPairCtx tests.
func TestEvalDeltaBitIdentical(t *testing.T) {
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
	evBase.Sample(ids, ds)
	evBase.Eval(ds, baseReg, &ls)

	got := measViews(n, mBase.Geom)
	for _, tc := range deltaTechCases() {
		mod := base
		tc.mut(&mod)
		m2 := NewModel(mod, false)
		ev2 := m2.NewEvaluator(s.NewScratch())

		wantReg := measViews(n, m2.Geom)
		wantHor := measViews(n, m2.Geom)
		ev2.EvalPair(ds, wantReg, wantHor, nil)

		ev2.EvalDelta(ds, DiffTech(base, mod), baseReg, &ls, got)

		for l := 0; l < n; l++ {
			if !reflect.DeepEqual(*wantReg[l], *got[l]) {
				t.Fatalf("%s: chip %d regular delta eval diverges from full eval\nwant %+v\ngot  %+v",
					tc.name, l, *wantReg[l], *got[l])
			}
		}
	}
}

// pinTechs returns the technologies of the vector-vs-scalar kernel pin:
// PTM45, every configuration of scenarios/tech-node-scan.json (PTM45
// under its vdd × vt_nominal grid), and marginTechs — the 90/65/32 nm
// scaled nodes and PTM45 at every pinned alpha, so each pow split runs.
func pinTechs(t *testing.T) []circuit.Tech {
	raw, err := os.ReadFile("../../scenarios/tech-node-scan.json")
	if err != nil {
		t.Fatal(err)
	}
	var scan struct {
		Axes []struct {
			Param  string    `json:"param"`
			Values []float64 `json:"values"`
		} `json:"axes"`
	}
	if err := json.Unmarshal(raw, &scan); err != nil {
		t.Fatal(err)
	}
	grid := []circuit.Tech{circuit.PTM45()}
	for _, ax := range scan.Axes {
		var next []circuit.Tech
		for _, tech := range grid {
			for _, v := range ax.Values {
				switch ax.Param {
				case "vdd":
					tech.Vdd = v
				case "vt_nominal":
					tech.VtNominal = v
				default:
					t.Fatalf("tech-node-scan axis %q: the pin knows only vdd and vt_nominal", ax.Param)
				}
				next = append(next, tech)
			}
		}
		grid = next
	}
	return append(append([]circuit.Tech{circuit.PTM45()}, grid...), marginTechs()...)
}

// sameBits reports whether two measurements agree bit for bit in every
// path delay, maximum and leakage.
func sameBits(a, b *CacheMeasurement) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(a.LatencyPS, b.LatencyPS) || !eq(a.LeakageW, b.LeakageW) || len(a.Ways) != len(b.Ways) {
		return false
	}
	for w := range a.Ways {
		aw, bw := &a.Ways[w], &b.Ways[w]
		if !eq(aw.LatencyPS, bw.LatencyPS) || !eq(aw.LeakageW, bw.LeakageW) || !eq(aw.PeriphLeakW, bw.PeriphLeakW) {
			return false
		}
		for k := range aw.Banks {
			ab, bb := &aw.Banks[k], &bw.Banks[k]
			if !eq(ab.MaxPS, bb.MaxPS) || !eq(ab.ArrayLeakW, bb.ArrayLeakW) {
				return false
			}
			for p := range ab.Paths {
				if ab.Paths[p] != bb.Paths[p] || !eq(ab.Paths[p].DelayPS, bb.Paths[p].DelayPS) {
					return false
				}
			}
		}
	}
	return true
}

// TestVectorKernelMatchesScalar pins the kernel's vector exp/log path
// to its scalar fallback: over the seed-2006 population, Eval under
// every pinTechs technology and EvalDelta from PTM45 to it must give
// bit-identical measurements with the vector loops on and off. On a
// host without AVX2/FMA both runs take the scalar path. Under the race
// detector the population is cut to its first 200 chips.
func TestVectorKernelMatchesScalar(t *testing.T) {
	n := 2000
	if raceEnabled {
		n = 200
	}
	g := Paper16KB()
	s := variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), 2006)
	sets, _ := RetainedBatches(n, g)
	base := circuit.PTM45()
	sampler := NewModel(base, false).NewEvaluator(s.NewScratch())
	ids := make([]int, BatchWidth)
	for k := range sets {
		c := min(BatchWidth, n-k*BatchWidth)
		for j := range ids[:c] {
			ids[j] = k*BatchWidth + j
		}
		sampler.Sample(ids[:c], &sets[k])
	}
	sampler.Release()

	// run evaluates every batch in full and as a delta from PTM45.
	run := func(tech circuit.Tech) (full, delta []*CacheMeasurement) {
		evBase := NewModel(base, false).NewEvaluator(s.NewScratch())
		ev := NewModel(tech, false).NewEvaluator(s.NewScratch())
		defer evBase.Release()
		defer ev.Release()
		full, delta = measViews(n, g), measViews(n, g)
		baseReg := measViews(BatchWidth, g)
		var ls LeakState
		parts := DiffTech(base, tech)
		for k := range sets {
			lo, c := k*BatchWidth, sets[k].Len()
			ev.Eval(&sets[k], full[lo:lo+c], nil)
			evBase.Eval(&sets[k], baseReg[:c], &ls)
			ev.EvalDelta(&sets[k], parts, baseReg[:c], &ls, delta[lo:lo+c])
		}
		return full, delta
	}
	t.Logf("vector exp/log: %v", useVec)
	for i, tech := range pinTechs(t) {
		vecFull, vecDelta := run(tech)
		var scaFull, scaDelta []*CacheMeasurement
		scalarOnly(func() { scaFull, scaDelta = run(tech) })
		for l := 0; l < n; l++ {
			if !sameBits(vecFull[l], scaFull[l]) {
				t.Fatalf("tech %d (%+v) chip %d: vector Eval differs from scalar", i, tech, l)
			}
			if !sameBits(vecDelta[l], scaDelta[l]) {
				t.Fatalf("tech %d (%+v) chip %d: vector EvalDelta differs from scalar", i, tech, l)
			}
		}
	}
}
