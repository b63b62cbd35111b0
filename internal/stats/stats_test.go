package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed generators diverged at sample %d", i)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	// Children with different labels must produce different streams, and
	// splitting must be reproducible from the same parent state.
	p1 := NewRNG(7)
	p2 := NewRNG(7)
	c1 := p1.Split(1)
	c2 := p2.Split(1)
	d1 := NewRNG(7).Split(2)
	same, diff := true, false
	for i := 0; i < 32; i++ {
		x, y, z := c1.Float64(), c2.Float64(), d1.Float64()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Error("Split with same label from same parent state is not reproducible")
	}
	if !diff {
		t.Error("Split with different labels produced identical streams")
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(1)
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = g.Normal(10, 2)
	}
	m, s := MeanStd(xs)
	if math.Abs(m-10) > 0.05 {
		t.Errorf("Normal mean = %v, want ~10", m)
	}
	if math.Abs(s-2) > 0.05 {
		t.Errorf("Normal stddev = %v, want ~2", s)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	g := NewRNG(2)
	mean, sigma := 45.0, 1.5
	bound := 3 * sigma
	for i := 0; i < 50000; i++ {
		v := g.TruncNormal(mean, sigma, bound)
		if v < mean-bound || v > mean+bound {
			t.Fatalf("TruncNormal sample %v outside [%v, %v]", v, mean-bound, mean+bound)
		}
	}
}

func TestTruncNormalDegenerate(t *testing.T) {
	g := NewRNG(3)
	if v := g.TruncNormal(5, 0, 1); v != 5 {
		t.Errorf("TruncNormal with sigma=0 = %v, want 5", v)
	}
	if v := g.TruncNormal(5, 1, 0); v != 5 {
		t.Errorf("TruncNormal with bound=0 = %v, want 5", v)
	}
	// Pathological ratio must still terminate and stay in bounds.
	for i := 0; i < 1000; i++ {
		v := g.TruncNormal(0, 100, 0.001)
		if v < -0.001 || v > 0.001 {
			t.Fatalf("pathological TruncNormal escaped bound: %v", v)
		}
	}
}

func TestMeanStdAgainstDefinitions(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	m, s := MeanStd(xs)
	if m != 5 || math.Abs(s-2) > 1e-12 {
		t.Errorf("MeanStd = %v, %v, want 5, 2", m, s)
	}
}

func TestMeanStdEmptyAndSingle(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v", m)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Errorf("MeanStd(nil) = %v, %v", m, s)
	}
	if m, s := MeanStd([]float64{3}); m != 3 || s != 0 {
		t.Errorf("MeanStd of single sample = %v, %v", m, s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 30); math.Abs(got-3) > 1e-12 {
		t.Errorf("Percentile(30) = %v, want 3", got)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if c := Correlation(xs, ys); math.Abs(c-1) > 1e-12 {
		t.Errorf("perfect positive correlation = %v", c)
	}
	neg := []float64{8, 6, 4, 2}
	if c := Correlation(xs, neg); math.Abs(c+1) > 1e-12 {
		t.Errorf("perfect negative correlation = %v", c)
	}
	if c := Correlation(xs, []float64{5, 5, 5, 5}); c != 0 {
		t.Errorf("correlation with constant = %v, want 0", c)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		return v1 <= v2 && v1 >= slices.Min(xs) && v2 <= slices.Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: correlation is symmetric and within [-1, 1].
func TestCorrelationBoundsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		g := NewRNG(seed)
		k := int(n%50) + 2
		xs := make([]float64, k)
		ys := make([]float64, k)
		for i := range xs {
			xs[i] = g.Normal(0, 1)
			ys[i] = g.Normal(0, 1)
		}
		c1 := Correlation(xs, ys)
		c2 := Correlation(ys, xs)
		return math.Abs(c1-c2) < 1e-9 && c1 >= -1-1e-9 && c1 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
