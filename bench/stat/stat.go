// Package stat holds the order statistics the benchmark reports and
// compares runs by. They live here rather than in internal/stats so that
// a change to the program under test cannot change how it is measured,
// and so that the quartiles follow Python's statistics.quantiles, which
// the benchmark's acceptance rule uses.
package stat

import "sort"

// MinBeyond is how many samples must lie beyond a reported percentile:
// a p90 needs 100 samples and a p99 needs 1000.
const MinBeyond = 10

// Percentile returns the nearest-rank percentile pm, in per-mille (500
// is the median, 990 the p99), of the samples, and whether it may be
// reported: the median always may, a higher percentile only with at
// least MinBeyond samples beyond it.
func Percentile(samples []float64, pm int) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := sorted(samples)
	rank := max(1, (pm*n+999)/1000) // ceil(pm·n/1000) in integers
	return s[rank-1], pm == 500 || n-rank >= MinBeyond
}

// Median is the middle value (the mean of the two middle values for an
// even count), as Python's statistics.median gives it; 0 for no values.
func Median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := sorted(vs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles as Python's
// statistics.quantiles(vs, n=4) gives them (the exclusive method). A
// single value is its own quartiles; no values give zeros.
func Quartiles(vs []float64) (q1, q3 float64) {
	s := sorted(vs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
