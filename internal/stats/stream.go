package stats

import "math"

// Moments is a streaming accumulator for the first two moments of a
// series: count, mean and M2 (the sum of squared deviations from the
// running mean), maintained with Welford's update. The zero value is
// an empty accumulator ready for use.
type Moments struct {
	N    int64
	Mean float64
	M2   float64
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(x float64) {
	m.N++
	d := x - m.Mean
	m.Mean += d / float64(m.N)
	m.M2 += d * (x - m.Mean)
}

// StdErr returns the standard error of the mean using the sample
// (n-1) variance, the quantity a confidence interval on the mean
// wants; 0 when fewer than two observations have been added.
func (m *Moments) StdErr() float64 {
	if m.N < 2 {
		return 0
	}
	v := m.M2 / float64(m.N-1)
	if v < 0 {
		return 0
	}
	return math.Sqrt(v / float64(m.N))
}

// Tally is a Bernoulli count: K successes out of N trials.
type Tally struct {
	K int64 // successes
	N int64 // trials
}

// Rate returns the success fraction K/N; 0 for an empty tally.
func (t Tally) Rate() float64 {
	if t.N == 0 {
		return 0
	}
	return float64(t.K) / float64(t.N)
}

// ZForConfidence returns the two-sided standard-normal quantile for a
// confidence level in (0, 1): the z with P(-z < Z < z) = conf. It is
// computed from the inverse error function (z = sqrt(2)*erfinv(conf)),
// so the usual 0.95 → 1.9599… needs no table. Out-of-range inputs are
// clamped to a near-degenerate interval rather than returning NaN.
func ZForConfidence(conf float64) float64 {
	if conf <= 0 {
		return 0
	}
	if conf >= 1 {
		conf = 1 - 1e-12
	}
	return math.Sqrt2 * math.Erfinv(conf)
}

// WilsonInterval returns the Wilson score confidence interval for a
// Bernoulli proportion with k successes in n trials. Unlike the normal
// (Wald) approximation, which collapses to zero width there, it stays
// meaningful at k = 0 and k = n (the interval
// keeps positive width, acknowledging that a streak proves nothing
// exactly) and at small n, which is exactly the regime a streaming
// yield estimate passes through early in a build. An empty tally gets
// the vacuous interval [0, 1].
func WilsonInterval(k, n int64, conf float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	z := ZForConfidence(conf)
	z2 := z * z
	nn := float64(n)
	denom := 1 + z2/nn
	center := (p + z2/(2*nn)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn))
	lo, hi = clamp01(center-half), clamp01(center+half)
	// The score bound touches the observed extreme exactly; pin the
	// endpoints the algebra guarantees so rounding noise cannot move a
	// k=0 lower bound off zero (or a k=n upper bound off one).
	if k == 0 {
		lo = 0
	}
	if k == n {
		hi = 1
	}
	return lo, hi
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
