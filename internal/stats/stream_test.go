package stats

import (
	"math"
	"testing"
)

func TestMomentsMatchesMeanStd(t *testing.T) {
	xs := []float64{3.1, -2.2, 7.7, 0, 4.25, 4.25, -9.5, 1e3}
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	wantMean, wantStd := MeanStd(xs)
	if math.Abs(m.Mean-wantMean) > 1e-12 {
		t.Errorf("Mean = %v, want %v", m.Mean, wantMean)
	}
	if std := math.Sqrt(m.M2 / float64(m.N)); math.Abs(std-wantStd) > 1e-9 {
		t.Errorf("std = %v, want %v", std, wantStd)
	}
	if m.N != int64(len(xs)) {
		t.Errorf("N = %d, want %d", m.N, len(xs))
	}
}

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if m.M2 != 0 || m.StdErr() != 0 || m.Mean != 0 {
		t.Errorf("empty accumulator not all-zero: %+v", m)
	}
}

func TestMomentsSingleObservation(t *testing.T) {
	var m Moments
	m.Add(5)
	if m.Mean != 5 || m.M2 != 0 || m.StdErr() != 0 {
		t.Errorf("single observation: %+v", m)
	}
}

func TestZForConfidence(t *testing.T) {
	cases := []struct{ conf, want float64 }{
		{0.6827, 1.0},
		{0.90, 1.6449},
		{0.95, 1.9600},
		{0.99, 2.5758},
	}
	for _, c := range cases {
		if got := ZForConfidence(c.conf); math.Abs(got-c.want) > 5e-4 {
			t.Errorf("ZForConfidence(%v) = %v, want %v", c.conf, got, c.want)
		}
	}
	if got := ZForConfidence(0); got != 0 {
		t.Errorf("ZForConfidence(0) = %v, want 0", got)
	}
	if got := ZForConfidence(1); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("ZForConfidence(1) = %v, want finite", got)
	}
	if got := ZForConfidence(-3); got != 0 {
		t.Errorf("ZForConfidence(-3) = %v, want 0", got)
	}
}

// TestWilsonIntervalEdges covers the regimes a streaming yield
// estimate passes through: empty, all-success (yield exactly 1),
// all-failure (yield exactly 0) and small N, where the normal
// approximation degenerates but Wilson must not.
func TestWilsonIntervalEdges(t *testing.T) {
	lo, hi := WilsonInterval(0, 0, 0.95)
	if lo != 0 || hi != 1 {
		t.Errorf("empty interval = [%v, %v], want [0, 1]", lo, hi)
	}

	// Yield exactly 1: interval must keep positive width below 1.
	lo, hi = WilsonInterval(50, 50, 0.95)
	if hi != 1 {
		t.Errorf("k=n: hi = %v, want 1", hi)
	}
	if lo >= 1 || lo <= 0 {
		t.Errorf("k=n: lo = %v, want in (0, 1)", lo)
	}

	// Yield exactly 0: mirror image.
	lo0, hi0 := WilsonInterval(0, 50, 0.95)
	if lo0 != 0 {
		t.Errorf("k=0: lo = %v, want 0", lo0)
	}
	if hi0 <= 0 || hi0 >= 1 {
		t.Errorf("k=0: hi = %v, want in (0, 1)", hi0)
	}
	// The k=0 and k=n intervals mirror each other.
	if math.Abs(hi0-(1-lo)) > 1e-12 {
		t.Errorf("mirror symmetry broken: k=0 hi %v vs 1-lo %v", hi0, 1-lo)
	}

	// Small N (< 30): interval is wide but proper, and contains p.
	lo, hi = WilsonInterval(3, 7, 0.95)
	p := 3.0 / 7.0
	if !(0 < lo && lo < p && p < hi && hi < 1) {
		t.Errorf("small-n interval [%v, %v] does not bracket %v properly", lo, hi, p)
	}
	if hi-lo < 0.3 {
		t.Errorf("small-n interval [%v, %v] implausibly narrow", lo, hi)
	}

	// Width shrinks as n grows at fixed p.
	_, hiSmall := WilsonInterval(10, 20, 0.95)
	loSmall, _ := WilsonInterval(10, 20, 0.95)
	loBig, hiBig := WilsonInterval(10000, 20000, 0.95)
	if hiBig-loBig >= hiSmall-loSmall {
		t.Errorf("interval did not shrink with n: %v vs %v", hiBig-loBig, hiSmall-loSmall)
	}

	// Higher confidence widens the interval.
	lo90, hi90 := WilsonInterval(40, 80, 0.90)
	lo99, hi99 := WilsonInterval(40, 80, 0.99)
	if hi99-lo99 <= hi90-lo90 {
		t.Errorf("99%% interval not wider than 90%%: %v vs %v", hi99-lo99, hi90-lo90)
	}

	// For moderate p and large n, Wilson agrees with the normal (Wald)
	// interval p ± z·sqrt(p(1-p)/n).
	wlo, whi := WilsonInterval(5000, 10000, 0.95)
	half := ZForConfidence(0.95) * math.Sqrt(0.5*0.5/10000)
	if math.Abs(wlo-(0.5-half)) > 1e-3 || math.Abs(whi-(0.5+half)) > 1e-3 {
		t.Errorf("Wilson [%v,%v] vs normal ±%v diverge at large n", wlo, whi, half)
	}
}
