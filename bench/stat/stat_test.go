package stat

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(n - i) // descending, so Percentile must sort
	}
	return vs
}

// TestPercentileRule pins the reporting rule: the median always, a
// higher percentile only with at least ten samples beyond it, so p90
// needs 100 samples and p99 needs 1000.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n, pm int
		want  float64
		ok    bool
	}{
		{1, 500, 1, true},
		{5, 500, 3, true},
		{99, 900, 90, false},
		{100, 900, 90, true},
		{101, 900, 91, true},
		{999, 990, 990, false},
		{1000, 990, 990, true},
		{5000, 990, 4950, true},
	} {
		got, ok := Percentile(seq(c.n), c.pm)
		if got != c.want || ok != c.ok {
			t.Errorf("Percentile(1..%d, %d) = %v, %v; want %v, %v", c.n, c.pm, got, ok, c.want, c.ok)
		}
	}
	if _, ok := Percentile(nil, 500); ok {
		t.Error("Percentile of no samples is reportable")
	}
}

// TestQuartilesMatchPython checks the values Python's
// statistics.quantiles(data, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	} {
		q1, q3 := Quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("Median = %v, want 2.5", m)
	}
}
