package ssta

import (
	"math"
	"testing"
	"testing/quick"

	"yieldcache/internal/circuit"
	"yieldcache/internal/sram"
	"yieldcache/internal/stats"
	"yieldcache/internal/variation"
)

func TestCanonicalBasics(t *testing.T) {
	c := New(100, 3)
	c.Sens[0] = 3
	c.Sens[1] = 4
	if got := c.Sigma(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Sigma = %v, want 5", got)
	}
	c.Rand = 12
	if got := c.Sigma(); math.Abs(got-13) > 1e-12 {
		t.Errorf("Sigma with Rand = %v, want 13", got)
	}
}

func TestCorrelation(t *testing.T) {
	a := New(0, 1)
	a.Sens[0] = 1
	b := New(0, 1)
	b.Sens[0] = 1
	if c := Correlation(a, b); math.Abs(c-1) > 1e-12 {
		t.Errorf("identical forms should correlate at 1, got %v", c)
	}
	b.Sens[0] = 0
	b.Rand = 1
	if c := Correlation(a, b); c != 0 {
		t.Errorf("independent forms should correlate at 0, got %v", c)
	}
}

func TestMaxDominatedCase(t *testing.T) {
	// When a >> b, max(a, b) ~ a.
	a := New(100, 1)
	a.Sens[0] = 2
	b := New(10, 1)
	b.Sens[0] = 2
	m := Max(a, b)
	if math.Abs(m.Mean-100) > 0.1 {
		t.Errorf("dominated max mean = %v, want ~100", m.Mean)
	}
	if math.Abs(m.Sigma()-2) > 0.1 {
		t.Errorf("dominated max sigma = %v, want ~2", m.Sigma())
	}
}

func TestMaxEqualIndependent(t *testing.T) {
	// max of two iid N(0,1): mean 1/sqrt(pi), variance 1 - 1/pi.
	a := New(0, 0)
	a.Rand = 1
	b := New(0, 0)
	b.Rand = 1
	m := Max(a, b)
	wantMean := 1 / math.Sqrt(math.Pi)
	wantVar := 1 - 1/math.Pi
	if math.Abs(m.Mean-wantMean) > 1e-9 {
		t.Errorf("max mean = %v, want %v", m.Mean, wantMean)
	}
	if math.Abs(m.Variance()-wantVar) > 1e-9 {
		t.Errorf("max variance = %v, want %v", m.Variance(), wantVar)
	}
}

func TestProbAbove(t *testing.T) {
	c := New(100, 0)
	c.Rand = 10
	if p := c.ProbAbove(100); math.Abs(p-0.5) > 1e-9 {
		t.Errorf("P(D > mean) = %v, want 0.5", p)
	}
	if p := c.ProbAbove(110); math.Abs(p-0.1586) > 1e-3 {
		t.Errorf("P(D > mean+sigma) = %v, want ~0.159", p)
	}
	det := New(5, 0)
	if det.ProbAbove(4) != 1 || det.ProbAbove(6) != 0 {
		t.Error("deterministic tail probabilities wrong")
	}
}

// Property: Clark's max is exact in mean/variance against brute-force
// Monte Carlo for a pair of correlated Gaussians.
func TestMaxAgainstMonteCarlo(t *testing.T) {
	g := stats.NewRNG(7)
	cases := []struct {
		m1, m2, s1, s2, rho float64
	}{
		{0, 0, 1, 1, 0.8},
		{10, 11, 2, 1, 0.3},
		{5, 5, 1, 3, -0.5},
	}
	for _, c := range cases {
		a := New(c.m1, 2)
		a.Sens[0] = c.s1 * math.Sqrt(math.Abs(c.rho))
		a.Rand = c.s1 * math.Sqrt(1-math.Abs(c.rho))
		b := New(c.m2, 2)
		sign := 1.0
		if c.rho < 0 {
			sign = -1
		}
		b.Sens[0] = sign * c.s2 * math.Sqrt(math.Abs(c.rho))
		b.Rand = c.s2 * math.Sqrt(1-math.Abs(c.rho))

		m := Max(a, b)
		n := 200000
		sum, sum2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := g.Normal(0, 1)
			va := c.m1 + a.Sens[0]*x + a.Rand*g.Normal(0, 1)
			vb := c.m2 + b.Sens[0]*x + b.Rand*g.Normal(0, 1)
			v := math.Max(va, vb)
			sum += v
			sum2 += v * v
		}
		mcMean := sum / float64(n)
		mcVar := sum2/float64(n) - mcMean*mcMean
		if math.Abs(m.Mean-mcMean) > 0.02*math.Max(1, math.Abs(mcMean)) {
			t.Errorf("case %+v: Clark mean %v vs MC %v", c, m.Mean, mcMean)
		}
		if math.Abs(m.Variance()-mcVar) > 0.05*mcVar+0.01 {
			t.Errorf("case %+v: Clark var %v vs MC %v", c, m.Variance(), mcVar)
		}
	}
}

func TestMaxAllOrderInsensitiveMean(t *testing.T) {
	cs := []Canonical{}
	for i := 0; i < 5; i++ {
		c := New(float64(90+i*2), 1)
		c.Sens[0] = 5
		c.Rand = 3
		cs = append(cs, c)
	}
	fwd := MaxAll(cs)
	rev := MaxAll([]Canonical{cs[4], cs[3], cs[2], cs[1], cs[0]})
	if math.Abs(fwd.Mean-rev.Mean) > 0.5 {
		t.Errorf("MaxAll order sensitivity too strong: %v vs %v", fwd.Mean, rev.Mean)
	}
}

func TestAnalyzeCacheAgainstMonteCarlo(t *testing.T) {
	tech := circuit.PTM45()
	spec := variation.Nassif45nm()
	an := AnalyzeCache(tech, spec, sram.Paper16KB(), false)
	if len(an.Ways) != 4 {
		t.Fatalf("ways = %d", len(an.Ways))
	}
	// Monte Carlo reference.
	model := sram.NewModel(tech, false)
	sampler := variation.NewSampler(spec, variation.PaperFactors(), 2006)
	n := 1500
	lat := make([]float64, n)
	for i := 0; i < n; i++ {
		lat[i] = model.Measure(sampler.Chip(i)).LatencyPS
	}
	mcMean, mcSigma := stats.MeanStd(lat)

	// The analytical mean lands below the Monte Carlo mean — the margin
	// nonlinearity (zero derivative at the nominal corner, strictly
	// positive everywhere else) shifts the true population upward. The
	// gap is the Section 2 inaccuracy; it must be a gap, not a collapse.
	if r := an.Latency.Mean / mcMean; r < 0.55 || r > 1.05 {
		t.Errorf("SSTA mean %v vs MC %v (ratio %v)", an.Latency.Mean, mcMean, r)
	}
	if an.Latency.Sigma() <= 0 {
		t.Fatal("SSTA sigma collapsed — sensitivities broken")
	}
	// The analytical tail must be *lighter*: P(D > mc mean + sigma)
	// under SSTA far below the MC fraction.
	limit := mcMean + mcSigma
	mcViol := 0
	for _, l := range lat {
		if l > limit {
			mcViol++
		}
	}
	mcFrac := float64(mcViol) / float64(n)
	sstaFrac := an.Latency.ProbAbove(limit)
	if sstaFrac >= mcFrac {
		t.Errorf("SSTA tail (%v) should underestimate the MC tail (%v)", sstaFrac, mcFrac)
	}
	// At its own mean the canonical model behaves like a Gaussian.
	if p := an.Latency.ProbAbove(an.Latency.Mean); math.Abs(p-0.5) > 1e-6 {
		t.Errorf("P(D > own mean) = %v", p)
	}
	// Inter-way correlation in the canonical model must be strong, as in
	// the MC population.
	if c := Correlation(an.Ways[0], an.Ways[1]); c < 0.2 || c > 0.99 {
		t.Errorf("canonical inter-way correlation = %v", c)
	}
}

func TestAnalyzeCacheHYAPDPenalty(t *testing.T) {
	tech := circuit.PTM45()
	spec := variation.Nassif45nm()
	reg := AnalyzeCache(tech, spec, sram.Paper16KB(), false)
	hor := AnalyzeCache(tech, spec, sram.Paper16KB(), true)
	if r := hor.Latency.Mean / reg.Latency.Mean; math.Abs(r-sram.HYAPDLatencyPenalty) > 1e-6 {
		t.Errorf("H-YAPD analytical penalty = %v, want %v", r, sram.HYAPDLatencyPenalty)
	}
}

// Property: Max is commutative (in mean and variance) and its mean
// dominates both inputs' means.
func TestMaxProperties(t *testing.T) {
	f := func(m1, m2 int8, s1, s2, r uint8) bool {
		a := New(float64(m1), 1)
		a.Sens[0] = float64(s1%10) / 2
		a.Rand = float64(r%10) / 3
		b := New(float64(m2), 1)
		b.Sens[0] = float64(s2%10) / 2
		ab := Max(a, b)
		ba := Max(b, a)
		if math.Abs(ab.Mean-ba.Mean) > 1e-9 || math.Abs(ab.Variance()-ba.Variance()) > 1e-9 {
			return false
		}
		return ab.Mean >= math.Max(a.Mean, b.Mean)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
