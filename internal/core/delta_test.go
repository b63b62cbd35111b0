package core

import (
	"context"
	"reflect"
	"testing"

	"yieldcache/internal/circuit"
	"yieldcache/internal/sram"
)

// measIdentical compares two populations on every measurement field —
// paths, bank aggregates, way aggregates and chip totals — so any
// single differing bit fails. chipsEqual (checkpoint_test.go) only
// samples the analysis-facing aggregates; the delta builder's contract
// is stronger.
func measIdentical(t *testing.T, label string, a, b *Population) {
	t.Helper()
	if len(a.Chips) != len(b.Chips) {
		t.Fatalf("%s: %d chips vs %d", label, len(a.Chips), len(b.Chips))
	}
	for i := range a.Chips {
		if !reflect.DeepEqual(a.Chips[i].Meas, b.Chips[i].Meas) {
			t.Fatalf("%s: chip %d measurement diverges\nwant %+v\ngot  %+v",
				label, i, b.Chips[i].Meas, a.Chips[i].Meas)
		}
	}
}

// newDelta is NewDeltaBuilderCtx on a background context; it fails the
// test on error.
func newDelta(t *testing.T, cfg PopulationConfig) *DeltaBuilder {
	t.Helper()
	d, err := NewDeltaBuilderCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeltaBuilderBaseMatchesFullBuild pins the builder's base pair to
// the ordinary build path: retaining draws must not perturb results.
func TestDeltaBuilderBaseMatchesFullBuild(t *testing.T) {
	cfg := PopulationConfig{N: 37, Seed: 2006}
	wantReg, wantHor := build(t, cfg)
	d := newDelta(t, cfg)
	gotReg, gotHor := d.Base()
	measIdentical(t, "base regular", gotReg, wantReg)
	measIdentical(t, "base horizontal", gotHor, wantHor)
}

// TestDeltaBuilderGridBitIdentical is the delta-build acceptance
// criterion: a two-parameter technology grid sweep (cell leakage ×
// alpha, exercising the leak-rescale path, the delay-only path, their
// combination and the no-op corner) built through BuildPairCtx must be
// bit-identical to a full Build at every grid point. Alpha
// 1.7 takes math.Pow's yf > 0.5 exponent shift in the kernel's pow.
func TestDeltaBuilderGridBitIdentical(t *testing.T) {
	base := circuit.PTM45()
	cfg := PopulationConfig{N: 2*sram.BatchWidth + 5, Seed: 2006, Tech: &base}
	d := newDelta(t, cfg)

	leakScale := []float64{1.0, 0.8, 1.25}
	alphas := []float64{base.Alpha, 1.25, 1.40, 1.7}
	for _, ls := range leakScale {
		for _, al := range alphas {
			tech := base
			tech.CellLeakage *= ls
			tech.Alpha = al
			full := cfg
			full.Tech = &tech
			wantReg, wantHor := build(t, full)
			gotReg, gotHor, err := d.BuildPairCtx(context.Background(), tech)
			if err != nil {
				t.Fatal(err)
			}
			label := d.Parts(tech)
			measIdentical(t, "regular "+labelOf(label), gotReg, wantReg)
			measIdentical(t, "horizontal "+labelOf(label), gotHor, wantHor)
		}
	}
}

func labelOf(p sram.TechParts) string {
	switch {
	case !p.Any():
		return "(no-op)"
	case p.Delay && p.LeakScale:
		return "(delay+leak-scale)"
	case p.Delay:
		return "(delay)"
	case p.LeakScale:
		return "(leak-scale)"
	default:
		return "(leak-factors)"
	}
}

// TestDeltaBuilderFullReevalGrid exercises the parts that re-run the
// leakage exponential and the everything-touched fallback: SubVtSlope
// and Vdd sweeps must also be bit-identical to full builds.
func TestDeltaBuilderFullReevalGrid(t *testing.T) {
	base := circuit.PTM45()
	cfg := PopulationConfig{N: sram.BatchWidth + 3, Seed: 2006, Tech: &base}
	d := newDelta(t, cfg)
	for _, mut := range []func(*circuit.Tech){
		func(t *circuit.Tech) { t.SubVtSlope = 0.030 },
		func(t *circuit.Tech) { t.Vdd = 0.95 },
		func(t *circuit.Tech) { t.Vdd = 1.05; t.CellLeakage *= 1.1; t.SubVtSlope = 0.026 },
	} {
		tech := base
		mut(&tech)
		full := cfg
		full.Tech = &tech
		wantReg, wantHor := build(t, full)
		gotReg, gotHor, err := d.BuildPairCtx(context.Background(), tech)
		if err != nil {
			t.Fatal(err)
		}
		measIdentical(t, "regular "+labelOf(d.Parts(tech)), gotReg, wantReg)
		measIdentical(t, "horizontal "+labelOf(d.Parts(tech)), gotHor, wantHor)
	}
}

// TestBuildBatchBoundaries sweeps population sizes around the kernel
// batch width — a single chip, one under, one over, and a prime well
// past it — across worker counts, checking each against the sequential
// delta-builder base (an independently-batched evaluation of the same
// draws). This pins the ragged-final-batch and stripe-assembly logic.
func TestBuildBatchBoundaries(t *testing.T) {
	for _, n := range []int{1, sram.BatchWidth - 1, sram.BatchWidth + 1, 97} {
		want := newDelta(t, PopulationConfig{N: n, Seed: 2006})
		wantReg, wantHor := want.Base()
		for _, workers := range []int{1, 3} {
			reg, hor := build(t, PopulationConfig{N: n, Seed: 2006, Workers: workers})
			measIdentical(t, "regular", reg, wantReg)
			measIdentical(t, "horizontal", hor, wantHor)
		}
	}
}

// TestBuildPrefixPurity checks that chip i's measurement depends only
// on the seed and i — never on N, worker count, or batch packing — by
// comparing a small build against the prefix of a larger one.
func TestBuildPrefixPurity(t *testing.T) {
	const small, large = 17, 64
	sReg, sHor := build(t, PopulationConfig{N: small, Seed: 2006})
	lReg, lHor := build(t, PopulationConfig{N: large, Seed: 2006, Workers: 4})
	for i := 0; i < small; i++ {
		if !reflect.DeepEqual(sReg.Chips[i].Meas, lReg.Chips[i].Meas) {
			t.Fatalf("regular chip %d differs between N=%d and N=%d builds", i, small, large)
		}
		if !reflect.DeepEqual(sHor.Chips[i].Meas, lHor.Chips[i].Meas) {
			t.Fatalf("horizontal chip %d differs between N=%d and N=%d builds", i, small, large)
		}
	}
}
