package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"yieldcache/internal/circuit"
	"yieldcache/internal/sram"
)

// measIdentical compares two populations on every measurement field —
// paths, bank aggregates, way aggregates and chip totals — so any
// single differing bit fails.
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

// basePair returns the builder's base-technology pair: its own regular
// population and the H-YAPD organisation BuildPairCtx derives from it.
func basePair(t *testing.T, d *DeltaBuilder) (regular, horizontal *Population) {
	t.Helper()
	_, horizontal, err := d.BuildPairCtx(context.Background(), d.baseTech)
	if err != nil {
		t.Fatal(err)
	}
	return d.base, horizontal
}

// checkBuildCtx checks the reused-arena path at tech: BuildCtx must be
// bit-identical to want, the regular population of a full build, and
// a tech with no diff must return the base population itself. Callers
// check each result before the next call, which overwrites it.
func checkBuildCtx(t *testing.T, d *DeltaBuilder, tech circuit.Tech, want *Population) {
	t.Helper()
	got, err := d.BuildCtx(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	parts := sram.DiffTech(d.baseTech, tech)
	if !parts.Any() && got != d.base {
		t.Fatal("BuildCtx with no diff returned a new population, want the base itself")
	}
	measIdentical(t, "BuildCtx "+labelOf(parts), got, want)
}

// TestDeltaBuilderBaseMatchesFullBuild pins the builder's base pair to
// the ordinary build path: retaining draws must not perturb results.
func TestDeltaBuilderBaseMatchesFullBuild(t *testing.T) {
	cfg := PopulationConfig{N: 37, Seed: 2006}
	wantReg, wantHor := build(t, cfg)
	d := newDelta(t, cfg)
	gotReg, gotHor := basePair(t, d)
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
			label := sram.DiffTech(d.baseTech, tech)
			measIdentical(t, "regular "+labelOf(label), gotReg, wantReg)
			measIdentical(t, "horizontal "+labelOf(label), gotHor, wantHor)
			checkBuildCtx(t, d, tech, wantReg)
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
		measIdentical(t, "regular "+labelOf(sram.DiffTech(d.baseTech, tech)), gotReg, wantReg)
		measIdentical(t, "horizontal "+labelOf(sram.DiffTech(d.baseTech, tech)), gotHor, wantHor)
		checkBuildCtx(t, d, tech, wantReg)
	}
}

// TestBuildBatchBoundaries sweeps population sizes around the kernel
// batch width — a single chip, one under, one over, and a prime well
// past it — across worker counts, checking each against the
// delta-builder base (the same batches evaluated through the separate
// Sample and EvalPair kernel entry points). This pins the ragged final
// batch and, with 16 workers on as few as two batches, a worker count
// above the batch count.
func TestBuildBatchBoundaries(t *testing.T) {
	for _, n := range []int{1, sram.BatchWidth - 1, sram.BatchWidth + 1, 97} {
		want := newDelta(t, PopulationConfig{N: n, Seed: 2006})
		wantReg, wantHor := basePair(t, want)
		for _, workers := range []int{1, 3, 16} {
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

// TestDeltaBuilderWorkerCountIndependent pins the batch-parallel
// builder to its single-worker result: the base pair and every delta
// class (copy, leak rescale, one-sided and both-sided re-evaluation)
// must be bit-identical whatever the worker count, including ragged
// final batches and more workers than batches.
func TestDeltaBuilderWorkerCountIndependent(t *testing.T) {
	base := circuit.PTM45()
	var techs []circuit.Tech
	for _, mut := range []func(*circuit.Tech){
		func(*circuit.Tech) {},                              // copy
		func(t *circuit.Tech) { t.CellLeakage *= 1.2 },      // leak rescale
		func(t *circuit.Tech) { t.Alpha = 1.4 },             // delay only
		func(t *circuit.Tech) { t.SubVtSlope = 0.030 },      // leakage only
		func(t *circuit.Tech) { t.Vdd = 1.05; t.DIBL *= 2 }, // both sides
	} {
		tech := base
		mut(&tech)
		techs = append(techs, tech)
	}
	for _, n := range []int{1, sram.BatchWidth - 1, sram.BatchWidth + 1, 97, 500} {
		cfg := PopulationConfig{N: n, Seed: 2006, Tech: &base, Workers: 1}
		ref := newDelta(t, cfg)
		refReg, refHor := basePair(t, ref)
		want := make([][2]*Population, len(techs))
		for i, tech := range techs {
			reg, hor, err := ref.BuildPairCtx(context.Background(), tech)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = [2]*Population{reg, hor}
		}
		for _, workers := range []int{2, 3, 8} {
			cfg.Workers = workers
			d := newDelta(t, cfg)
			reg, hor := basePair(t, d)
			measIdentical(t, "base regular", reg, refReg)
			measIdentical(t, "base horizontal", hor, refHor)
			for i, tech := range techs {
				reg, hor, err := d.BuildPairCtx(context.Background(), tech)
				if err != nil {
					t.Fatal(err)
				}
				label := labelOf(sram.DiffTech(d.baseTech, tech))
				measIdentical(t, "regular "+label, reg, want[i][0])
				measIdentical(t, "horizontal "+label, hor, want[i][1])
				checkBuildCtx(t, d, tech, want[i][0])
			}
		}
	}
}

// TestDeltaBuilderCancellation checks that a 2-worker base build
// returns ctx.Err() when its context is cancelled before or during the
// build, and that a cancelled BuildPairCtx leaves the builder usable.
func TestDeltaBuilderCancellation(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewDeltaBuilderCtx(cancelled, PopulationConfig{N: 97, Seed: 1, Workers: 2}); err != context.Canceled {
		t.Errorf("base build on a cancelled ctx = %v, want context.Canceled", err)
	}

	// 20000 chips take far longer than the deadline on any machine.
	ctx, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	if _, err := NewDeltaBuilderCtx(ctx, PopulationConfig{N: 20_000, Seed: 1, Workers: 2}); err != context.DeadlineExceeded {
		t.Errorf("base build past its deadline = %v, want context.DeadlineExceeded", err)
	}

	cfg := PopulationConfig{N: 97, Seed: 1, Workers: 2}
	d := newDelta(t, cfg)
	tech := circuit.PTM45()
	tech.Vdd = 1.05
	if reg, hor, err := d.BuildPairCtx(cancelled, tech); err != context.Canceled || reg != nil || hor != nil {
		t.Fatalf("BuildPairCtx on a cancelled ctx = (%v, %v, %v), want nil populations and context.Canceled", reg, hor, err)
	}
	reg, hor, err := d.BuildPairCtx(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	full := cfg
	full.Tech = &tech
	wantReg, wantHor := build(t, full)
	measIdentical(t, "regular after a cancelled call", reg, wantReg)
	measIdentical(t, "horizontal after a cancelled call", hor, wantHor)

	if got, err := d.BuildCtx(cancelled, tech); err != context.Canceled || got != nil {
		t.Fatalf("BuildCtx on a cancelled ctx = (%v, %v), want a nil population and context.Canceled", got, err)
	}
	checkBuildCtx(t, d, tech, wantReg)
}

// TestDeltaBuilderRejectsEstimate checks that the delta builder
// refuses the build option it does not implement instead of dropping
// it.
func TestDeltaBuilderRejectsEstimate(t *testing.T) {
	cfg := PopulationConfig{N: 8, Estimate: &EstimateConfig{}}
	if _, err := NewDeltaBuilderCtx(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "Estimate") {
		t.Errorf("err = %v, want an error naming Estimate", err)
	}
}
