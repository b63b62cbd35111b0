package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"yieldcache/internal/circuit"
	"yieldcache/internal/obs"
	"yieldcache/internal/sram"
)

func TestTechParamRegistry(t *testing.T) {
	names := TechParamNames()
	if len(names) != 11 {
		t.Fatalf("expected 11 sweepable tech parameters, got %d: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("TechParamNames not sorted: %v", names)
		}
	}
	tech := circuit.PTM45()
	if err := SetTechParam(&tech, "vdd", 1.23); err != nil {
		t.Fatal(err)
	}
	if tech.Vdd != 1.23 {
		t.Fatalf("SetTechParam(vdd) = %v", tech.Vdd)
	}
	if err := SetTechParam(&tech, "nope", 1); err == nil {
		t.Fatal("unknown parameter accepted")
	}
}

func TestPlanSweepValidation(t *testing.T) {
	bad := []SweepSpec{
		{Axes: []TechAxis{{Param: "nope", Values: []float64{1}}}},
		{Axes: []TechAxis{{Param: "vdd", Values: nil}}},
		{Axes: []TechAxis{
			{Param: "vdd", Values: []float64{1}},
			{Param: "vdd", Values: []float64{1.1}},
		}},
		{Constraints: []Constraints{{Name: "zero-k", DelaySigmaK: 0, LeakageMult: 3}}},
		{Geometries: []sram.Geometry{{Ways: 5, BanksPerWay: 4, RowsPerBank: 64, BitsPerRow: 128, PathsPerBank: 4}}},
		{Geometries: []sram.Geometry{{Ways: 2, BanksPerWay: 0, RowsPerBank: 64, BitsPerRow: 128, PathsPerBank: 4}}},
	}
	for i, spec := range bad {
		if _, err := PlanSweep(spec); err == nil {
			t.Errorf("spec %d accepted, want error", i)
		}
	}
}

// TestPlanSweepOrderingAndReuse is the planner contract: the cluster
// base is the grid origin (its unit is a zero-cost copy build),
// identical grid points deduplicate into one unit, constraint sets
// share units, and units evaluate cheapest-delta-first.
func TestPlanSweepOrderingAndReuse(t *testing.T) {
	base := circuit.PTM45()
	spec := SweepSpec{
		N:    8,
		Seed: 2006,
		Axes: []TechAxis{
			// Origin value first; the duplicate 1.25 exercises dedup.
			{Param: "cell_leakage", Values: []float64{base.CellLeakage, base.CellLeakage * 1.25, base.CellLeakage * 1.25}},
			{Param: "alpha", Values: []float64{base.Alpha, 1.25}},
		},
		Constraints: []Constraints{Nominal(), Strict()},
	}
	plan, err := PlanSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(plan.Configs), 3*2*2; got != want {
		t.Fatalf("configs = %d, want %d", got, want)
	}
	if len(plan.Clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(plan.Clusters))
	}
	cl := plan.Clusters[0]
	if cl.Base != base {
		t.Fatalf("cluster base is not the grid origin: %+v", cl.Base)
	}
	// 3×2 grid points but only 2×2 distinct techs after dedup.
	if got, want := len(cl.Units), 4; got != want {
		t.Fatalf("units = %d, want %d after dedup", got, want)
	}
	if cl.Units[0].Parts.Any() {
		t.Fatalf("first unit should be the zero-cost origin copy, got parts %+v", cl.Units[0].Parts)
	}
	for i := 1; i < len(cl.Units); i++ {
		if deltaClass(cl.Units[i-1].Parts) > deltaClass(cl.Units[i].Parts) {
			t.Fatalf("units not in cheapest-delta-first order at %d: %+v then %+v",
				i, cl.Units[i-1].Parts, cl.Units[i].Parts)
		}
	}
	// Every config appears in exactly one unit.
	seen := make(map[int]bool)
	for _, u := range cl.Units {
		for _, idx := range u.Configs {
			if seen[idx] {
				t.Fatalf("config %d planned twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != len(plan.Configs) {
		t.Fatalf("planned %d of %d configs", len(seen), len(plan.Configs))
	}
	st := plan.Stats()
	if st.FullBuilds != 1 || st.CopyBuilds < 1 {
		t.Fatalf("stats = %+v, want 1 full build and ≥1 copy build", st)
	}
	// The duplicated grid point and the extra constraint set both show
	// up as shared evaluations: 12 configs over 4 population builds.
	if want := len(plan.Configs) - 4; st.SharedEvals != want {
		t.Fatalf("shared evals = %d, want %d", st.SharedEvals, want)
	}
	if st.DeltaBuilds+st.CopyBuilds != 4 {
		t.Fatalf("builds don't cover units: %+v", st)
	}
}

// sweepTestSpec is a 2-parameter tech grid × 2 constraint sets used by
// the identity and resume tests.
func sweepTestSpec(n int) SweepSpec {
	base := circuit.PTM45()
	return SweepSpec{
		N:    n,
		Seed: 2006,
		Axes: []TechAxis{
			{Param: "cell_leakage", Values: []float64{base.CellLeakage, base.CellLeakage * 1.25}},
			{Param: "alpha", Values: []float64{base.Alpha, 1.30}},
		},
		Constraints: []Constraints{Nominal(), Strict()},
	}
}

// TestRunSweepBitIdenticalToFullBuilds is the sweep acceptance
// criterion: every evaluation of a planned sweep must equal — bit for
// bit — the evaluation of an independently built population pair at
// that config.
//
// The second spec adds the leak-only class and the both-sided class the
// sweep-grid workload runs. The planner orders its Vdd 0.95 units
// before the faster Vdd 1.05 ones, so a latency maximum left behind in
// the builder's reused arena would surface there.
func TestRunSweepBitIdenticalToFullBuilds(t *testing.T) {
	vddSlope := SweepSpec{
		N:    2*sram.BatchWidth + 3,
		Seed: 2006,
		Axes: []TechAxis{
			{Param: "vdd", Values: []float64{1.10, 0.95, 1.05}},
			{Param: "subvt_slope", Values: []float64{0.027, 0.030}},
		},
	}
	for _, spec := range []SweepSpec{sweepTestSpec(2*sram.BatchWidth + 3), vddSlope} {
		plan, err := PlanSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		evals, err := RunSweep(context.Background(), plan, SweepRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		schemes := DefaultSweepSchemes()
		for _, ev := range evals {
			cfg := ev.Config
			tech := cfg.Tech
			geom := cfg.Geometry
			reg, _ := build(t, PopulationConfig{
				N: plan.Spec.N, Seed: plan.Spec.Seed, Tech: &tech, Geom: &geom,
			})
			want := evalSweepConfig(cfg, reg, schemes)
			if ev.Limits != want.Limits {
				t.Fatalf("config %d (%s): limits %+v != independent %+v", cfg.Index, cfg.Label(), ev.Limits, want.Limits)
			}
			if ev.BaseYield != want.BaseYield || ev.BaseLost != want.BaseLost {
				t.Fatalf("config %d: base yield %v/%d != %v/%d", cfg.Index, ev.BaseYield, ev.BaseLost, want.BaseYield, want.BaseLost)
			}
			if ev.MeanLatencyPS != want.MeanLatencyPS || ev.MeanLeakageW != want.MeanLeakageW {
				t.Fatalf("config %d: means (%v, %v) != (%v, %v)", cfg.Index,
					ev.MeanLatencyPS, ev.MeanLeakageW, want.MeanLatencyPS, want.MeanLeakageW)
			}
			for i := range ev.Yields {
				if ev.Yields[i] != want.Yields[i] {
					t.Fatalf("config %d scheme %s: %+v != %+v", cfg.Index, ev.Yields[i].Scheme, ev.Yields[i], want.Yields[i])
				}
			}
		}
	}
}

// TestRunSweepCounters pins the core_sweep_* counters: every config
// counted as evaluated, one base build per cluster, and one delta or
// copy build per unit.
func TestRunSweepCounters(t *testing.T) {
	spec := sweepTestSpec(sram.BatchWidth + 1)
	plan, err := PlanSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Disable()
	names := []string{"core_sweep_configs_total",
		"core_sweep_base_builds_total", "core_sweep_delta_builds_total", "core_sweep_copy_builds_total"}
	want := map[string]int64{names[0]: int64(len(plan.Configs)), names[1]: int64(len(plan.Clusters))}
	for _, cl := range plan.Clusters {
		for _, u := range cl.Units {
			if u.Parts.Any() {
				want[names[2]]++
			} else {
				want[names[3]]++
			}
		}
	}
	reg := obs.Enable()
	if _, err := RunSweep(context.Background(), plan, SweepRunOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := counters(reg, names...); !reflect.DeepEqual(got, want) {
		t.Errorf("sweep left the counters at %v, want %v", got, want)
	}
}

// TestRunSweepGeometryCluster sweeps two geometries and checks that a
// down-sized organisation evaluates identically to a direct build with
// the geometry override.
func TestRunSweepGeometryCluster(t *testing.T) {
	small := sram.Geometry{Ways: 2, BanksPerWay: 2, RowsPerBank: 32, BitsPerRow: 64, PathsPerBank: 2}
	spec := SweepSpec{
		N:          sram.BatchWidth + 2,
		Seed:       7,
		Geometries: []sram.Geometry{sram.Paper16KB(), small},
	}
	plan, err := PlanSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(plan.Clusters))
	}
	evals, err := RunSweep(context.Background(), plan, SweepRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evals {
		if ev.Config.Geometry != small {
			continue
		}
		tech := ev.Config.Tech
		geom := ev.Config.Geometry
		reg, _ := build(t, PopulationConfig{N: plan.Spec.N, Seed: plan.Spec.Seed, Tech: &tech, Geom: &geom})
		if len(reg.Chips[0].Meas.Ways) != small.Ways {
			t.Fatalf("geometry override ignored: %d ways", len(reg.Chips[0].Meas.Ways))
		}
		want := evalSweepConfig(ev.Config, reg, DefaultSweepSchemes())
		if ev.MeanLatencyPS != want.MeanLatencyPS || ev.BaseYield != want.BaseYield {
			t.Fatalf("small-geometry eval differs: %+v != %+v", ev, want)
		}
	}
}

func TestRunSweepOnEvalProgress(t *testing.T) {
	spec := sweepTestSpec(sram.BatchWidth)
	plan, err := PlanSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := 0
	maxDone := 0
	evals, err := RunSweep(context.Background(), plan, SweepRunOptions{
		OnEval: func(ev SweepEval, done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if done > maxDone {
				maxDone = done
			}
			if total != len(plan.Configs) {
				t.Errorf("total = %d, want %d", total, len(plan.Configs))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(plan.Configs) || maxDone != len(plan.Configs) {
		t.Fatalf("OnEval calls = %d, max done = %d, want %d", calls, maxDone, len(plan.Configs))
	}
	for i, ev := range evals {
		if ev.Config.Index != i {
			t.Fatalf("eval %d carries config index %d", i, ev.Config.Index)
		}
	}
}

func TestRunSweepCancellation(t *testing.T) {
	spec := sweepTestSpec(4 * sram.BatchWidth)
	plan, err := PlanSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSweep(ctx, plan, SweepRunOptions{}); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
}

// TestParetoFrontierFixture is the hand-built 3-config reduction
// check: A dominates C outright, B trades yield for latency and power,
// so the frontier is exactly {A, B}.
func TestParetoFrontierFixture(t *testing.T) {
	pts := []ParetoPoint{
		{Yield: 0.90, LatencyPS: 100, LeakageW: 1.00}, // A
		{Yield: 0.80, LatencyPS: 90, LeakageW: 0.90},  // B: worse yield, better perf+power
		{Yield: 0.70, LatencyPS: 110, LeakageW: 1.10}, // C: dominated by A
	}
	got := ParetoFrontier(pts)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("frontier = %v, want [0 1]", got)
	}

	// Exactly equal points don't dominate each other: both stay.
	ties := []ParetoPoint{
		{Yield: 0.9, LatencyPS: 100, LeakageW: 1},
		{Yield: 0.9, LatencyPS: 100, LeakageW: 1},
	}
	if got := ParetoFrontier(ties); len(got) != 2 {
		t.Fatalf("tie frontier = %v, want both points", got)
	}

	// Strict dominance on one axis with equality on the rest dominates.
	edge := []ParetoPoint{
		{Yield: 0.9, LatencyPS: 100, LeakageW: 1},
		{Yield: 0.9, LatencyPS: 100, LeakageW: 1.01},
	}
	if got := ParetoFrontier(edge); len(got) != 1 || got[0] != 0 {
		t.Fatalf("edge frontier = %v, want [0]", got)
	}
}

func TestSweepFrontiers(t *testing.T) {
	mk := func(idx int, baseY, y, lat, leak float64) SweepEval {
		return SweepEval{
			Config:        SweepConfig{Index: idx},
			BaseYield:     baseY,
			MeanLatencyPS: lat,
			MeanLeakageW:  leak,
			Yields:        []SchemeYield{{Scheme: "YAPD", Yield: y}},
		}
	}
	evals := []SweepEval{
		mk(0, 0.5, 0.9, 100, 1.0),
		mk(1, 0.6, 0.7, 100, 1.0), // base-better, scheme-worse than 0
	}
	fr := SweepFrontiers(evals)
	if got := fr["Base"]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("base frontier = %v, want [1]", got)
	}
	if got := fr["YAPD"]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("YAPD frontier = %v, want [0]", got)
	}
	if len(SweepFrontiers(nil)) != 0 {
		t.Fatal("empty evals should reduce to no frontiers")
	}
}

// counters reads the named counters of reg.
func counters(reg *obs.Registry, names ...string) map[string]int64 {
	got := map[string]int64{}
	for _, name := range names {
		got[name] = reg.Counter(name).Value()
	}
	return got
}
