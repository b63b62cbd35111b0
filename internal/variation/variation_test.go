package variation

import (
	"math"
	"testing"
	"testing/quick"

	"yieldcache/internal/stats"
)

func TestSpecTable1(t *testing.T) {
	s := Nassif45nm()
	if s.Nominal[Leff] != 45 || s.Nominal[Vt] != 220 || s.Nominal[W] != 0.25 ||
		s.Nominal[T] != 0.55 || s.Nominal[H] != 0.15 {
		t.Errorf("nominal values do not match Table 1: %+v", s.Nominal)
	}
	if s.Sigma3Pct[Leff] != 10 || s.Sigma3Pct[Vt] != 18 || s.Sigma3Pct[W] != 33 ||
		s.Sigma3Pct[T] != 33 || s.Sigma3Pct[H] != 35 {
		t.Errorf("3-sigma percentages do not match Table 1: %+v", s.Sigma3Pct)
	}
}

func TestSigmaAndBound(t *testing.T) {
	s := Nassif45nm()
	// Leff: 10% of 45nm = 4.5nm at 3 sigma -> sigma 1.5nm.
	if got := s.Sigma(Leff); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Sigma(Leff) = %v, want 1.5", got)
	}
	if got := s.Bound(Leff); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("Bound(Leff) = %v, want 4.5", got)
	}
	if got := s.Bound(Vt); math.Abs(got-39.6) > 1e-9 {
		t.Errorf("Bound(Vt) = %v, want 39.6 mV", got)
	}
}

func TestParamString(t *testing.T) {
	if Leff.String() != "Leff" || Vt.String() != "Vt" || H.String() != "H" {
		t.Error("parameter names wrong")
	}
	if Param(99).String() != "Param(99)" {
		t.Error("out-of-range parameter name wrong")
	}
}

func TestPaperFactors(t *testing.T) {
	f := PaperFactors()
	if f.Row != 0.05 || f.VerticalWay != 0.45 ||
		f.HorizWay != 0.375 || f.DiagWay != 0.7125 {
		t.Errorf("factors do not match Section 3: %+v", f)
	}
	if f.WayFactor(0) != 0 {
		t.Error("way 0 must be the reference (factor 0)")
	}
	if f.WayFactor(1) != 0.375 || f.WayFactor(2) != 0.45 || f.WayFactor(3) != 0.7125 {
		t.Error("mesh way factors wrong")
	}
}

func TestWayFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WayFactor(4) should panic")
		}
	}()
	PaperFactors().WayFactor(4)
}

func TestChipDeterminism(t *testing.T) {
	s := NewSampler(Nassif45nm(), PaperFactors(), 99)
	a := s.Chip(5)
	b := s.Chip(5)
	if a.Values != b.Values {
		t.Error("same chip id produced different root draws")
	}
	sc := s.NewScratch()
	ad, bd := a.AsDraw(), b.AsDraw()
	if sc.Way(&ad, 3).Values != sc.Way(&bd, 3).Values {
		t.Error("same chip id produced different way draws")
	}
	c := s.Chip(6)
	if a.Values == c.Values {
		t.Error("different chip ids produced identical draws")
	}
}

func TestChipOrderIndependence(t *testing.T) {
	s := NewSampler(Nassif45nm(), PaperFactors(), 7)
	sc := s.NewScratch()
	root := sc.Chip(3)
	first := sc.Way(&root, 2).Values
	// Drawing other chips in between must not change chip 3.
	sc.Chip(0)
	sc.Chip(9)
	root = sc.Chip(3)
	second := sc.Way(&root, 2).Values
	if first != second {
		t.Error("chip draws depend on evaluation order")
	}
}

func TestRootWithinBounds(t *testing.T) {
	spec := Nassif45nm()
	s := NewSampler(spec, PaperFactors(), 1)
	for id := 0; id < 500; id++ {
		n := s.Chip(id)
		for p := Param(0); p < NumParams; p++ {
			lo := spec.Nominal[p] - spec.Bound(p)
			hi := spec.Nominal[p] + spec.Bound(p)
			if n.Values[p] < lo || n.Values[p] > hi {
				t.Fatalf("chip %d %v = %v outside [%v, %v]", id, p, n.Values[p], lo, hi)
			}
		}
	}
}

func TestChildTracksParentByFactor(t *testing.T) {
	spec := Nassif45nm()
	sc := NewSampler(spec, PaperFactors(), 2).NewScratch()
	n := 2000
	var devSmall, devLarge float64
	for id := 0; id < n; id++ {
		root := sc.Chip(id)
		small := sc.Child(&root, 0.05, 1) // strongly correlated
		large := sc.Child(&root, 0.7125, 2)
		devSmall += math.Abs(small.Values[Vt] - root.Values[Vt])
		devLarge += math.Abs(large.Values[Vt] - root.Values[Vt])
	}
	if devSmall >= devLarge {
		t.Errorf("smaller factor should track parent more closely: mean|dev| %v vs %v",
			devSmall/float64(n), devLarge/float64(n))
	}
}

func TestChildFactorZeroCopies(t *testing.T) {
	sc := NewSampler(Nassif45nm(), PaperFactors(), 3).NewScratch()
	root := sc.Chip(0)
	if c := sc.Child(&root, 0, 1); c.Values != root.Values {
		t.Error("factor-0 child must copy parent values exactly")
	}
	if w := sc.Way(&root, 0); w.Values != root.Values {
		t.Error("way 0 must equal the chip root")
	}
}

func TestChildBounds(t *testing.T) {
	spec := Nassif45nm()
	sc := NewSampler(spec, PaperFactors(), 4).NewScratch()
	for id := 0; id < 200; id++ {
		root := sc.Chip(id)
		for wi := 0; wi < 4; wi++ {
			w := sc.Way(&root, wi)
			f := PaperFactors().WayFactor(wi)
			for p := Param(0); p < NumParams; p++ {
				if d := math.Abs(w.Values[p] - root.Values[p]); d > f*spec.Bound(p)+1e-12 {
					t.Fatalf("way %d %v deviates %v > factor-scaled bound %v", wi, p, d, f*spec.Bound(p))
				}
			}
		}
	}
}

func TestSiblingLabelsDiffer(t *testing.T) {
	sc := NewSampler(Nassif45nm(), PaperFactors(), 5).NewScratch()
	root := sc.Chip(0)
	r1 := sc.Row(&root, 1)
	r2 := sc.Row(&root, 2)
	r1again := sc.Row(&root, 1)
	if r1.Values == r2.Values {
		t.Error("different row labels gave identical draws")
	}
	if r1.Values != r1again.Values {
		t.Error("same row label gave different draws")
	}
}

func TestInterWayCorrelationOrdering(t *testing.T) {
	// The diagonal way (factor 0.7125) must be less correlated with way 0
	// than the horizontal way (0.375), which is less than vertical (0.45)
	// ... i.e. correlation coefficient ordering is the inverse of factor
	// ordering: horiz > vert > diag.
	sc := NewSampler(Nassif45nm(), PaperFactors(), 6).NewScratch()
	n := 4000
	w0 := make([]float64, n)
	w1 := make([]float64, n)
	w2 := make([]float64, n)
	w3 := make([]float64, n)
	for id := 0; id < n; id++ {
		root := sc.Chip(id)
		w0[id] = sc.Way(&root, 0).Values[Leff]
		w1[id] = sc.Way(&root, 1).Values[Leff]
		w2[id] = sc.Way(&root, 2).Values[Leff]
		w3[id] = sc.Way(&root, 3).Values[Leff]
	}
	c1 := stats.Correlation(w0, w1) // horizontal, factor 0.375
	c2 := stats.Correlation(w0, w2) // vertical, factor 0.45
	c3 := stats.Correlation(w0, w3) // diagonal, factor 0.7125
	if !(c1 > c2 && c2 > c3) {
		t.Errorf("correlation ordering violated: horiz %v, vert %v, diag %v", c1, c2, c3)
	}
	if c3 < 0.3 {
		t.Errorf("even the diagonal way should remain substantially correlated, got %v", c3)
	}
}

func TestDelta(t *testing.T) {
	spec := Nassif45nm()
	root := NewSampler(spec, PaperFactors(), 8).Chip(0)
	for p := Param(0); p < NumParams; p++ {
		want := (root.Values[p] - spec.Nominal[p]) / spec.Nominal[p]
		got := spec.DeltaOf(p, root.Values[p])
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("DeltaOf(%v) = %v, want %v", p, got, want)
		}
		if math.Abs(got) > spec.Sigma3Pct[p]/100+1e-12 {
			t.Errorf("DeltaOf(%v) = %v exceeds the 3-sigma fractional window", p, got)
		}
	}
}

// Property: for any seed and chip id, every descendant drawn with the
// paper factors stays within the chip root's window +/- the factor-scaled
// bound, and the whole tree is reproducible.
func TestTreeProperty(t *testing.T) {
	spec := Nassif45nm()
	f := func(seed int64, id uint16, label uint8) bool {
		sc := NewSampler(spec, PaperFactors(), seed).NewScratch()
		draw := func() (row, bit Draw) {
			root := sc.Chip(int(id))
			w := sc.Way(&root, int(label)%4)
			row = sc.Row(&w, int64(label))
			return row, sc.Child(&row, 0.01, int64(label))
		}
		row, bit := draw()
		// Bit factor 0.01: the bit must be within 1% of the Table 1 bound
		// from its row.
		for p := Param(0); p < NumParams; p++ {
			if math.Abs(bit.Values[p]-row.Values[p]) > 0.01*spec.Bound(p)+1e-12 {
				return false
			}
		}
		_, again := draw()
		return bit.Values == again.Values
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpecAtNodes(t *testing.T) {
	for _, n := range Nodes() {
		spec, err := SpecAt(n)
		if err != nil {
			t.Fatalf("%d nm: %v", int(n), err)
		}
		if spec.Nominal[Leff] != float64(n) {
			t.Errorf("%d nm: Leff nominal = %v", int(n), spec.Nominal[Leff])
		}
		for p := Param(0); p < NumParams; p++ {
			if spec.Nominal[p] <= 0 || spec.Sigma3Pct[p] <= 0 {
				t.Errorf("%d nm: degenerate %v", int(n), p)
			}
		}
	}
	if _, err := SpecAt(TechNode(7)); err == nil {
		t.Error("unknown node should error")
	}
	// Relative variation must grow monotonically with scaling.
	prev := -1.0
	for _, n := range []TechNode{Node90, Node65, Node45, Node32} {
		spec, _ := SpecAt(n)
		if spec.Sigma3Pct[Leff] <= prev {
			t.Errorf("Leff variation should grow with scaling, %d nm has %v", int(n), spec.Sigma3Pct[Leff])
		}
		prev = spec.Sigma3Pct[Leff]
	}
}
