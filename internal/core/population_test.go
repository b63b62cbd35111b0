package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"yieldcache/internal/circuit"
	"yieldcache/internal/obs"
	"yieldcache/internal/sram"
	"yieldcache/internal/variation"
)

// build is Build on a background context returning the regular
// population and the H-YAPD one derived from it; it fails the test on
// error.
func build(t testing.TB, cfg PopulationConfig) (reg, hor *Population) {
	t.Helper()
	res, err := Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Regular, DeriveHorizontal(res.Regular)
}

// goldenChip pins a chip's measurement to hex-exact values captured
// from the pre-refactor tree-based double-build path (seed 2006,
// N=200). The single-pass shared-draw builder must reproduce them bit
// for bit — the acceptance bar of the paper-reproduction tables.
type goldenChip struct {
	id              int
	regLat, regLeak float64
	horLat, horLeak float64
}

var golden2006 = []goldenChip{
	{0, 0x1.99af714dfd98p+09, 0x1.fca893c3e8454p-06, 0x1.a3ed6dbcbd889p+09, 0x1.fca893c3e8454p-06},
	{1, 0x1.40d260d7f441cp+10, 0x1.92c3d59942c6dp-07, 0x1.48d7a343c0c36p+10, 0x1.92c3d59942c6dp-07},
	{7, 0x1.5659a78c88a0ep+09, 0x1.3b4886deda06ap-05, 0x1.5ee8b2233f3e7p+09, 0x1.3b4886deda06ap-05},
	{63, 0x1.58e024849b3d9p+09, 0x1.b5dc87dced15dp-05, 0x1.617f58a185857p+09, 0x1.b5dc87dced15dp-05},
	{199, 0x1.df7828535d874p+09, 0x1.dd32ee5111516p-06, 0x1.eb74c2ef0caa9p+09, 0x1.dd32ee5111516p-06},
}

const (
	goldenRegLatSum  = 0x1.312d5bb4e55e8p+17
	goldenRegLeakSum = 0x1.79aefc7f957cap+03
	goldenHorLatSum  = 0x1.38ce7dffd1812p+17
	goldenHorLeakSum = 0x1.79aefc7f957cap+03
	goldenLimDelay   = 0x1.e5ca3362b807ap+09
	goldenLimLeak    = 0x1.6a9381c2291b8p-03
)

func hexEq(t *testing.T, what string, got, want float64) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %x (%.17g), want %x", what, got, got, want)
	}
}

// TestGoldenSeed2006 is the bit-identity regression for the single-pass
// builder: spot chips, population sums, derived limits and the Table 2
// loss breakdown must all match the values the old double-build path
// produced for seed 2006.
func TestGoldenSeed2006(t *testing.T) {
	reg, hor := build(t, PopulationConfig{N: 200, Seed: 2006})
	for _, g := range golden2006 {
		hexEq(t, "reg lat", reg.Chips[g.id].Meas.LatencyPS, g.regLat)
		hexEq(t, "reg leak", reg.Chips[g.id].Meas.LeakageW, g.regLeak)
		hexEq(t, "hor lat", hor.Chips[g.id].Meas.LatencyPS, g.horLat)
		hexEq(t, "hor leak", hor.Chips[g.id].Meas.LeakageW, g.horLeak)
	}
	var rl, rk, hl, hk float64
	for i := range reg.Chips {
		rl += reg.Chips[i].Meas.LatencyPS
		rk += reg.Chips[i].Meas.LeakageW
		hl += hor.Chips[i].Meas.LatencyPS
		hk += hor.Chips[i].Meas.LeakageW
	}
	hexEq(t, "reg lat sum", rl, goldenRegLatSum)
	hexEq(t, "reg leak sum", rk, goldenRegLeakSum)
	hexEq(t, "hor lat sum", hl, goldenHorLatSum)
	hexEq(t, "hor leak sum", hk, goldenHorLeakSum)

	lim := DeriveLimits(reg, Nominal())
	hexEq(t, "limit delay", lim.DelayPS, goldenLimDelay)
	hexEq(t, "limit leak", lim.LeakageW, goldenLimLeak)

	bd := BreakdownLosses(reg, lim, YAPD{}, VACA{}, Hybrid{})
	if bd.BaseTotal != 35 || bd.Schemes[0].Total != 13 || bd.Schemes[1].Total != 14 || bd.Schemes[2].Total != 3 {
		t.Errorf("loss breakdown = base %d yapd %d vaca %d hybrid %d, want 35/13/14/3",
			bd.BaseTotal, bd.Schemes[0].Total, bd.Schemes[1].Total, bd.Schemes[2].Total)
	}
}

// TestPairMatchesDoubleBuild checks that one shared-draw pair build
// equals measuring every chip on its own under each organisation
// (sram.Model.Measure of the chip's variation tree), chip for chip.
func TestPairMatchesDoubleBuild(t *testing.T) {
	reg, hor := build(t, PopulationConfig{N: 64, Seed: 41})
	sampler := variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), 41)
	mReg := sram.NewModel(circuit.PTM45(), false)
	mHor := sram.NewModel(circuit.PTM45(), true)
	for i := range reg.Chips {
		if !reflect.DeepEqual(reg.Chips[i].Meas, mReg.Measure(sampler.Chip(i))) {
			t.Fatalf("chip %d: pair regular population diverges from a single measurement", i)
		}
		if !reflect.DeepEqual(hor.Chips[i].Meas, mHor.Measure(sampler.Chip(i))) {
			t.Fatalf("chip %d: pair H-YAPD population diverges from a single measurement", i)
		}
	}
	if reg.Model.HYAPD || !hor.Model.HYAPD {
		t.Fatal("pair models carry wrong organisations")
	}
}

// TestBuildDerivesHorizontal checks DeriveHorizontal on a parallel
// build at a non-paper technology and geometry: every derived chip
// equals the H-YAPD measurement of the same chip under that technology
// and geometry, keeps its id, and the derived population carries an
// H-YAPD model of the regular one's technology and geometry and its
// seed.
func TestBuildDerivesHorizontal(t *testing.T) {
	tech := circuit.PTM45()
	tech.Vdd = 1.05
	g := sram.Paper16KB()
	g.Ways, g.PathsPerBank = 2, 3
	reg, hor := build(t, PopulationConfig{N: 2*sram.BatchWidth + 5, Seed: 17, Workers: 3, Tech: &tech, Geom: &g})
	sampler := variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), 17)
	mHor := &sram.Model{Tech: tech, Geom: g, HYAPD: true}
	if len(hor.Chips) != len(reg.Chips) {
		t.Fatalf("derived %d chips from %d", len(hor.Chips), len(reg.Chips))
	}
	for i := range hor.Chips {
		if hor.Chips[i].ID != reg.Chips[i].ID {
			t.Fatalf("chip %d: derived id %d, regular id %d", i, hor.Chips[i].ID, reg.Chips[i].ID)
		}
		if !reflect.DeepEqual(hor.Chips[i].Meas, mHor.Measure(sampler.Chip(i))) {
			t.Fatalf("chip %d: derived H-YAPD measurement diverges from a single measurement", i)
		}
	}
	if !hor.Model.HYAPD || hor.Model.Tech != tech || hor.Model.Geom != g || hor.Seed != 17 {
		t.Errorf("derived population carries model %+v and seed %d, want H-YAPD at the build's technology, geometry and seed 17",
			*hor.Model, hor.Seed)
	}
}

// TestWorkerCountIndependence checks determinism across parallelism:
// a serial build and a wide build produce identical chips, because chip
// i is a pure function of (seed, i) regardless of which worker draws it.
func TestWorkerCountIndependence(t *testing.T) {
	serial, _ := build(t, PopulationConfig{N: 50, Seed: 2006, Workers: 1})
	wide, _ := build(t, PopulationConfig{N: 50, Seed: 2006, Workers: 8})
	if !reflect.DeepEqual(serial.Chips, wide.Chips) {
		t.Fatal("population depends on worker count")
	}
	sp, wp := build(t, PopulationConfig{N: 50, Seed: 2006, Workers: 1})
	s8, w8 := build(t, PopulationConfig{N: 50, Seed: 2006, Workers: 8})
	if !reflect.DeepEqual(sp.Chips, s8.Chips) || !reflect.DeepEqual(wp.Chips, w8.Chips) {
		t.Fatal("pair population depends on worker count")
	}
}

// TestBuildCtxCancellation checks that Build aborts early: a cancelled
// context returns its error without building, and an expiring deadline
// stops a large build well before completion.
func TestBuildCtxCancellation(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(cancelled, PopulationConfig{N: 10, Seed: 1}); err != context.Canceled {
		t.Errorf("Build on cancelled ctx = %v, want context.Canceled", err)
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	t0 := time.Now()
	_, err := Build(ctx, PopulationConfig{N: 200_000, Seed: 1})
	if err != context.DeadlineExceeded {
		t.Errorf("deadline build = %v, want context.DeadlineExceeded", err)
	}
	// 200k chips take tens of seconds; the abort must be near-immediate
	// (worker cancellation polls once per chip).
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Errorf("cancelled build took %s", elapsed)
	}

	// The background-context path is unaffected.
	if reg, hor := build(t, PopulationConfig{N: 5, Seed: 1}); len(reg.Chips) != 5 || len(hor.Chips) != 5 {
		t.Error("Build on a background context broken")
	}
}

// TestBuildRejectsInvalidConfig checks that a negative chip count or an
// out-of-range geometry is an error from Build and from the delta
// builder, not a panic in the arena allocation.
func TestBuildRejectsInvalidConfig(t *testing.T) {
	geom := func(mut func(*sram.Geometry)) *sram.Geometry {
		g := sram.Paper16KB()
		mut(&g)
		return &g
	}
	cases := []struct {
		name string
		cfg  PopulationConfig
		want string
	}{
		{"negative n", PopulationConfig{N: -5}, "negative"},
		{"zero ways", PopulationConfig{N: 8, Geom: geom(func(g *sram.Geometry) { g.Ways = 0 })}, "ways"},
		{"five ways", PopulationConfig{N: 8, Geom: geom(func(g *sram.Geometry) { g.Ways = 5 })}, "ways"},
		{"zero banks", PopulationConfig{N: 8, Geom: geom(func(g *sram.Geometry) { g.BanksPerWay = 0 })}, "non-positive"},
		{"negative paths", PopulationConfig{N: 8, Geom: geom(func(g *sram.Geometry) { g.PathsPerBank = -1 })}, "non-positive"},
	}
	for _, tc := range cases {
		if _, err := Build(context.Background(), tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Build error = %v, want one naming %q", tc.name, err, tc.want)
		}
		if _, err := NewDeltaBuilderCtx(context.Background(), tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewDeltaBuilderCtx error = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestMemoizedColumns checks the derived columns are computed once,
// shared between calls, and agree with the chip measurements.
func TestMemoizedColumns(t *testing.T) {
	p, _ := build(t, PopulationConfig{N: 20, Seed: 9})
	lats, leaks := p.Latencies(), p.Leakages()
	if &lats[0] != &p.Latencies()[0] || &leaks[0] != &p.Leakages()[0] {
		t.Fatal("columns reallocated on second call")
	}
	sum := 0.0
	for i, c := range p.Chips {
		if lats[i] != c.Meas.LatencyPS || leaks[i] != c.Meas.LeakageW {
			t.Fatalf("column %d disagrees with chip measurement", i)
		}
		sum += c.Meas.LeakageW
	}
	pts := p.Scatter(Limits{DelayPS: math.Inf(1), LeakageW: math.Inf(1)})
	avg := sum / float64(len(p.Chips))
	for i := range pts {
		if pts[i].NormalizedLeakage != leaks[i]/avg {
			t.Fatalf("scatter point %d normalisation off", i)
		}
	}
}

// TestBuildProgressMonotonic drives a build with a telemetry scope in
// the context and polls its progress concurrently: done must never
// decrease, never exceed total, and must land exactly on N when the
// build finishes uncancelled.
func TestBuildProgressMonotonic(t *testing.T) {
	const n = 400
	sc := obs.NewScope("test-job", nil)
	ctx := obs.WithScope(context.Background(), sc)

	stop := make(chan struct{})
	var pollErr atomic.Value
	go func() {
		defer close(stop)
		var last int64
		for {
			done, total := sc.Progress()
			if done < last {
				pollErr.Store(fmt.Sprintf("progress went backwards: %d after %d", done, last))
				return
			}
			if total != 0 && done > total {
				pollErr.Store(fmt.Sprintf("progress overshot: %d/%d", done, total))
				return
			}
			last = done
			if total != 0 && done == total {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	if _, err := Build(ctx, PopulationConfig{N: n, Seed: 7, Workers: 4}); err != nil {
		t.Fatalf("build failed: %v", err)
	}
	<-stop
	if msg := pollErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	if done, total := sc.Progress(); done != n || total != n {
		t.Errorf("final progress = %d/%d, want %d/%d", done, total, n, n)
	}
}

// TestBuildProgressPartialOnCancel checks a cancelled build leaves
// progress strictly below total instead of faking completion.
func TestBuildProgressPartialOnCancel(t *testing.T) {
	sc := obs.NewScope("test-job", nil)
	ctx, cancel := context.WithCancel(obs.WithScope(context.Background(), sc))
	cancel()
	if _, err := Build(ctx, PopulationConfig{N: 10_000, Seed: 1}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if done, total := sc.Progress(); done >= total || total != 10_000 {
		t.Errorf("cancelled build progress = %d/%d, want done < total = 10000", done, total)
	}
}

// TestBuildTraceLanes checks that a build draws its workers on trace
// lanes 2…W+1, by worker index, not by each worker's first chip.
func TestBuildTraceLanes(t *testing.T) {
	const n, workers, seed = 120, 3, 2006
	scope := obs.NewScope("build", nil)
	_, err := Build(obs.WithScope(context.Background(), scope), PopulationConfig{
		N: n, Seed: seed, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	lanes := map[int]int{}
	for _, s := range scope.Tracer.Spans() {
		if s.Name == "measure_chips" {
			lanes[s.Lane]++
		}
	}
	for lane := 2; lane < 2+workers; lane++ {
		if lanes[lane] != 1 {
			t.Errorf("lane %d holds %d measure_chips spans, want 1 (lanes %v)", lane, lanes[lane], lanes)
		}
	}
	if len(lanes) != workers {
		t.Errorf("build drew measure_chips on lanes %v, want 2…%d", lanes, workers+1)
	}
}
