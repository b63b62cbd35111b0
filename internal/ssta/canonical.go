// Package ssta implements first-order block-based statistical static
// timing analysis in the canonical form of Visweswariah et al. and
// Chang/Sapatnekar (the paper's references [38] and [8]).
//
// Section 2 of the paper weighs this analytical approach against Monte
// Carlo: "Analytical approaches to statistical timing analysis have
// been proposed recently, but suffer from inaccuracies due to a large
// number of assumptions. However, these approaches are efficient…  For
// accurate analysis, Monte Carlo simulations are widely employed."
// This package exists to make that trade-off measurable in this
// reproduction: it predicts the cache's latency distribution and
// delay-limit violation probabilities in microseconds instead of
// seconds, and the comparison drivers in package core quantify exactly
// how much accuracy the linearisation costs against the Monte Carlo
// population (the sense-margin nonlinearity is what it misses most).
package ssta

import "math"

// Canonical is a first-order canonical delay form:
//
//	D = Mean + Σ_i Sens[i]·X_i + Rand·R
//
// where the X_i are shared unit-normal process parameters (one per
// global variation source) and R is an independent unit-normal specific
// to this delay. Correlation between two delays comes entirely from the
// shared sensitivities.
type Canonical struct {
	Mean float64
	Sens []float64
	Rand float64
}

// New returns a canonical form with n shared parameters.
func New(mean float64, n int) Canonical {
	return Canonical{Mean: mean, Sens: make([]float64, n)}
}

// Variance returns the total variance.
func (c Canonical) Variance() float64 {
	v := c.Rand * c.Rand
	for _, s := range c.Sens {
		v += s * s
	}
	return v
}

// Sigma returns the standard deviation.
func (c Canonical) Sigma() float64 { return math.Sqrt(c.Variance()) }

// Covariance returns Cov(a, b) (shared sensitivities only; the Rand
// parts are independent by construction).
func Covariance(a, b Canonical) float64 {
	n := len(a.Sens)
	if len(b.Sens) < n {
		n = len(b.Sens)
	}
	cov := 0.0
	for i := 0; i < n; i++ {
		cov += a.Sens[i] * b.Sens[i]
	}
	return cov
}

// Correlation returns the correlation coefficient of two canonical
// delays, 0 when either is deterministic.
func Correlation(a, b Canonical) float64 {
	sa, sb := a.Sigma(), b.Sigma()
	if sa == 0 || sb == 0 {
		return 0
	}
	return Covariance(a, b) / (sa * sb)
}

// Max returns the canonical approximation of max(a, b) using Clark's
// moment-matching: the exact first two moments of the max of two
// correlated Gaussians, with the sensitivities blended by the tightness
// probability so downstream correlations stay usable. This is the
// linearisation step where block-based SSTA loses accuracy on
// max-dominated structures like a cache's path forest.
func Max(a, b Canonical) Canonical {
	sa2, sb2 := a.Variance(), b.Variance()
	cov := Covariance(a, b)
	theta := math.Sqrt(math.Max(sa2+sb2-2*cov, 1e-24))
	alpha := (a.Mean - b.Mean) / theta

	t := phi(alpha)     // tightness: P(a > b)
	pdf := gauss(alpha) // standard normal density at alpha

	mean := a.Mean*t + b.Mean*(1-t) + theta*pdf
	second := (sa2+a.Mean*a.Mean)*t + (sb2+b.Mean*b.Mean)*(1-t) +
		(a.Mean+b.Mean)*theta*pdf
	variance := math.Max(second-mean*mean, 0)

	n := len(a.Sens)
	if len(b.Sens) > n {
		n = len(b.Sens)
	}
	out := New(mean, n)
	shared := 0.0
	for i := 0; i < n; i++ {
		var va, vb float64
		if i < len(a.Sens) {
			va = a.Sens[i]
		}
		if i < len(b.Sens) {
			vb = b.Sens[i]
		}
		out.Sens[i] = t*va + (1-t)*vb
		shared += out.Sens[i] * out.Sens[i]
	}
	if rest := variance - shared; rest > 0 {
		out.Rand = math.Sqrt(rest)
	}
	return out
}

// MaxAll folds Max over a slice; it panics on an empty slice.
func MaxAll(cs []Canonical) Canonical {
	if len(cs) == 0 {
		panic("ssta: MaxAll of empty slice")
	}
	out := cs[0]
	for _, c := range cs[1:] {
		out = Max(out, c)
	}
	return out
}

// ProbAbove returns P(D > x) under the Gaussian canonical model.
func (c Canonical) ProbAbove(x float64) float64 {
	s := c.Sigma()
	if s == 0 {
		if c.Mean > x {
			return 1
		}
		return 0
	}
	return 1 - phi((x-c.Mean)/s)
}

// phi is the standard normal CDF.
func phi(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// gauss is the standard normal density.
func gauss(x float64) float64 { return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi) }
