package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanStd returns both the mean and the population standard deviation in
// a single pass over the data.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var s, ss float64
	for _, x := range xs {
		s += x
		ss += x * x
	}
	n := float64(len(xs))
	mean = s / n
	v := ss/n - mean*mean
	if v < 0 {
		v = 0
	}
	return mean, math.Sqrt(v)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between order statistics. It panics on an empty
// slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Correlation returns the Pearson correlation coefficient between xs and
// ys. It returns 0 when either series is constant. It panics when the
// slices have different lengths.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Correlation length mismatch")
	}
	if len(xs) == 0 {
		return 0
	}
	mx, sx := MeanStd(xs)
	my, sy := MeanStd(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / (float64(len(xs)) * sx * sy)
}
