package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"yieldcache/internal/circuit"
	"yieldcache/internal/obs"
	"yieldcache/internal/sram"
)

// This file is the design-space exploration engine: a SweepSpec names a
// grid over technology parameters, cache geometries and constraint
// sets; PlanSweep turns it into an evaluation plan that maximises
// DeltaBuilder draw reuse; RunSweep executes the plan with per-config
// cancellation and progress reporting; and
// ParetoFrontier/SweepFrontiers reduce the per-config evaluations into
// yield × performance × leakage frontiers.

// techParams maps canonical sweep parameter names to the circuit.Tech
// field they address. The names double as the wire schema of sweep
// specs, so they are part of the public API (docs/SWEEPS.md).
var techParams = map[string]func(*circuit.Tech) *float64{
	"vdd":                 func(t *circuit.Tech) *float64 { return &t.Vdd },
	"vt_nominal":          func(t *circuit.Tech) *float64 { return &t.VtNominal },
	"alpha":               func(t *circuit.Tech) *float64 { return &t.Alpha },
	"dibl":                func(t *circuit.Tech) *float64 { return &t.DIBL },
	"subvt_slope":         func(t *circuit.Tech) *float64 { return &t.SubVtSlope },
	"coupling_frac":       func(t *circuit.Tech) *float64 { return &t.CouplingFrac },
	"diffusion_frac":      func(t *circuit.Tech) *float64 { return &t.DiffusionFrac },
	"cell_leakage":        func(t *circuit.Tech) *float64 { return &t.CellLeakage },
	"periphery_leak_frac": func(t *circuit.Tech) *float64 { return &t.PeripheryLeakFrac },
	"sense_margin_gain":   func(t *circuit.Tech) *float64 { return &t.SenseMarginGain },
	"sense_margin_max":    func(t *circuit.Tech) *float64 { return &t.SenseMarginMax },
}

// TechParamNames returns the canonical names a TechAxis may sweep, in
// sorted order.
func TechParamNames() []string {
	names := make([]string, 0, len(techParams))
	for n := range techParams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SetTechParam sets the named technology parameter on t. It is the
// write half of the sweep parameter registry; unknown names error.
func SetTechParam(t *circuit.Tech, name string, v float64) error {
	f, ok := techParams[name]
	if !ok {
		return fmt.Errorf("unknown tech parameter %q (want one of %s)",
			name, strings.Join(TechParamNames(), ", "))
	}
	*f(t) = v
	return nil
}

// TechAxis is one swept technology parameter: the canonical parameter
// name (see TechParamNames) and the grid values it takes. Values keep
// their given order; the first value anchors the DeltaBuilder base, so
// listing values nearest the technology's nominal point first keeps
// deltas small.
type TechAxis struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values"`
}

// SweepSpec names a design-space grid: the cross product of every
// geometry, every technology grid point (the cross product of the
// axes applied to Base) and every constraint set. The zero value of
// each dimension means "the paper's default" — Paper16KB geometry,
// PTM45 base technology, nominal constraints.
type SweepSpec struct {
	// N is the Monte Carlo population size per config; 0 means
	// PaperPopulationSize.
	N int `json:"n,omitempty"`
	// Seed is the master variation seed shared by every config —
	// common random numbers are what make adjacent grid points directly
	// comparable.
	Seed int64 `json:"seed"`
	// Base is the technology the axes perturb; nil means circuit.PTM45.
	Base *circuit.Tech `json:"base,omitempty"`
	// Axes are the swept technology parameters; empty sweeps only
	// geometry × constraints.
	Axes []TechAxis `json:"axes,omitempty"`
	// Constraints are the k/m constraint sets to derive limits from;
	// empty means Nominal only.
	Constraints []Constraints `json:"constraints,omitempty"`
	// Geometries are the cache organisations to sweep; empty means
	// sram.Paper16KB only. Ways must stay within 1..4 (the variation
	// mesh is 2×2).
	Geometries []sram.Geometry `json:"geometries,omitempty"`
}

// maxSweepConfigs bounds the planner against runaway grids; servers
// apply their own (much lower) admission limits on top.
const maxSweepConfigs = 1 << 20

func (s *SweepSpec) fill() {
	if s.N == 0 {
		s.N = PaperPopulationSize
	}
	if s.Base == nil {
		t := circuit.PTM45()
		s.Base = &t
	}
	if len(s.Constraints) == 0 {
		s.Constraints = []Constraints{Nominal()}
	}
	for i := range s.Constraints {
		if s.Constraints[i].Name == "" {
			s.Constraints[i].Name = fmt.Sprintf("k=%g,m=%g",
				s.Constraints[i].DelaySigmaK, s.Constraints[i].LeakageMult)
		}
	}
	if len(s.Geometries) == 0 {
		s.Geometries = []sram.Geometry{sram.Paper16KB()}
	}
}

func (s *SweepSpec) validate() error {
	if s.N < 0 {
		return fmt.Errorf("sweep: N must be positive, got %d", s.N)
	}
	seen := make(map[string]bool, len(s.Axes))
	for _, ax := range s.Axes {
		if _, ok := techParams[ax.Param]; !ok {
			return fmt.Errorf("sweep: unknown tech parameter %q (want one of %s)",
				ax.Param, strings.Join(TechParamNames(), ", "))
		}
		if seen[ax.Param] {
			return fmt.Errorf("sweep: tech parameter %q swept twice", ax.Param)
		}
		seen[ax.Param] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", ax.Param)
		}
	}
	for _, c := range s.Constraints {
		if c.DelaySigmaK <= 0 || c.LeakageMult <= 0 {
			return fmt.Errorf("sweep: constraint %q needs positive k and m (got k=%g, m=%g)",
				c.Name, c.DelaySigmaK, c.LeakageMult)
		}
	}
	for _, g := range s.Geometries {
		if err := checkGeometry(g); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	points := 1
	for _, ax := range s.Axes {
		points *= len(ax.Values)
		if points > maxSweepConfigs {
			return fmt.Errorf("sweep: tech grid exceeds %d points", maxSweepConfigs)
		}
	}
	total := points * len(s.Constraints) * len(s.Geometries)
	if total > maxSweepConfigs {
		return fmt.Errorf("sweep: %d configs exceed the %d-config planner cap", total, maxSweepConfigs)
	}
	return nil
}

// SweepConfig is one fully resolved point of the design space: a
// geometry, a concrete technology (Base with the axis point applied)
// and a constraint set. Index is the config's dense position in spec
// enumeration order (geometry-major, then tech grid row-major, then
// constraints) — results are always reported in Index order, whatever
// order the planner evaluates in.
type SweepConfig struct {
	Index       int                `json:"index"`
	Geometry    sram.Geometry      `json:"geometry"`
	Tech        circuit.Tech       `json:"tech"`
	Point       map[string]float64 `json:"point,omitempty"`
	Constraints Constraints        `json:"constraints"`
}

// Label renders a short human-readable config identity ("vdd=1.08
// k=1,m=3") for logs and progress events.
func (c SweepConfig) Label() string {
	parts := make([]string, 0, len(c.Point)+1)
	keys := make([]string, 0, len(c.Point))
	for k := range c.Point {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%g", k, c.Point[k]))
	}
	parts = append(parts, c.Constraints.Name)
	return strings.Join(parts, " ")
}

// SweepUnit is one population build: a distinct technology within a
// cluster, the measurement parts its diff against the cluster base
// touches, and the configs (by Index) that share its population.
// Deduplication means a unit's population is built once however many
// constraint sets read it.
type SweepUnit struct {
	Tech    circuit.Tech
	Point   map[string]float64
	Parts   sram.TechParts
	Configs []int
}

// SweepCluster groups the units that share one DeltaBuilder: all tech
// grid points of one geometry, delta-evaluated against Base (the grid
// origin — every axis at its first value), whose full build doubles as
// the origin unit's population.
type SweepCluster struct {
	Geometry sram.Geometry
	Base     circuit.Tech
	Units    []SweepUnit
}

// SweepStats summarises how much work a plan avoids relative to naive
// per-config full rebuilds.
type SweepStats struct {
	// Configs is the total number of evaluated design points.
	Configs int `json:"configs"`
	// FullBuilds is the number of from-scratch sampled builds (one per
	// cluster: the DeltaBuilder base).
	FullBuilds int `json:"full_builds"`
	// CopyBuilds is the number of units whose tech diff touches nothing
	// (they evaluate the base population itself: no kernel work).
	CopyBuilds int `json:"copy_builds"`
	// DeltaBuilds is the number of units re-evaluated from retained
	// draws (sampling skipped; only the diffed parts recomputed).
	DeltaBuilds int `json:"delta_builds"`
	// SharedEvals is the number of configs that reuse another config's
	// populations outright (constraint sets sharing a unit).
	SharedEvals int `json:"shared_evals"`
}

// SweepPlan is a planned sweep: the resolved spec, the dense config
// list in spec order, and the cluster/unit evaluation structure that
// maximises draw reuse.
type SweepPlan struct {
	Spec     SweepSpec
	Configs  []SweepConfig
	Clusters []SweepCluster
}

// Stats reports the plan's reuse structure.
func (p *SweepPlan) Stats() SweepStats {
	st := SweepStats{Configs: len(p.Configs), FullBuilds: len(p.Clusters)}
	units := 0
	for _, cl := range p.Clusters {
		units += len(cl.Units)
		for _, u := range cl.Units {
			if u.Parts.Any() {
				st.DeltaBuilds++
			} else {
				st.CopyBuilds++
			}
		}
	}
	st.SharedEvals = len(p.Configs) - units
	return st
}

// PlanSweep validates spec, fills its defaults and plans the
// evaluation order:
//
//   - one cluster per geometry, its DeltaBuilder based at the grid
//     origin (every axis at its first value), so the base build is
//     itself a swept config rather than throwaway work;
//   - one unit per distinct technology (identical grid points
//     deduplicate: draws are sampled once per cluster and every unit
//     reuses them);
//   - every constraint set of a unit shares its population — the
//     cheapest reuse of all, zero kernel work per extra config;
//   - units ordered cheapest-delta-first (copy, leak-rescale,
//     single-sided re-eval, both-sided re-eval), so early results
//     stream out at minimum cost and same-shape deltas run
//     back-to-back.
//
// Every evaluated population is bit-identical to the regular
// population of a full Build at that config (the DeltaBuilder
// guarantee), so a sweep's numbers never differ from one-off studies of
// the same seed.
func PlanSweep(spec SweepSpec) (*SweepPlan, error) {
	spec.fill()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	plan := &SweepPlan{Spec: spec}

	// Enumerate the tech grid once, row-major (axis 0 slowest), as
	// (tech, point) pairs shared by every geometry cluster.
	type gridPoint struct {
		tech  circuit.Tech
		point map[string]float64
	}
	points := []gridPoint{{tech: *spec.Base}}
	for _, ax := range spec.Axes {
		next := make([]gridPoint, 0, len(points)*len(ax.Values))
		for _, p := range points {
			for _, v := range ax.Values {
				t := p.tech
				if err := SetTechParam(&t, ax.Param, v); err != nil {
					return nil, err
				}
				np := make(map[string]float64, len(p.point)+1)
				for k, pv := range p.point {
					np[k] = pv
				}
				np[ax.Param] = v
				next = append(next, gridPoint{tech: t, point: np})
			}
		}
		points = next
	}

	for _, geom := range spec.Geometries {
		cl := SweepCluster{Geometry: geom, Base: points[0].tech}
		byTech := make(map[circuit.Tech]int, len(points))
		for _, p := range points {
			ui, ok := byTech[p.tech]
			if !ok {
				ui = len(cl.Units)
				byTech[p.tech] = ui
				cl.Units = append(cl.Units, SweepUnit{
					Tech:  p.tech,
					Point: p.point,
					Parts: sram.DiffTech(cl.Base, p.tech),
				})
			}
			for _, cons := range spec.Constraints {
				idx := len(plan.Configs)
				plan.Configs = append(plan.Configs, SweepConfig{
					Index:       idx,
					Geometry:    geom,
					Tech:        p.tech,
					Point:       p.point,
					Constraints: cons,
				})
				cl.Units[ui].Configs = append(cl.Units[ui].Configs, idx)
			}
		}
		sort.SliceStable(cl.Units, func(a, b int) bool {
			return deltaClass(cl.Units[a].Parts) < deltaClass(cl.Units[b].Parts)
		})
		plan.Clusters = append(plan.Clusters, cl)
	}
	return plan, nil
}

// deltaClass ranks a tech diff by how much of the measurement kernel
// it re-runs: 0 copies, 1 rescales cached leakage aggregates, 2
// re-evaluates one side (delay or leakage), 3 re-evaluates both.
func deltaClass(p sram.TechParts) int {
	switch {
	case !p.Any():
		return 0
	case !p.Delay && !p.LeakFactors:
		return 1
	case p.Delay != p.LeakFactors:
		return 2
	default:
		return 3
	}
}

// sweepConfidence is the level of every sweep interval.
const sweepConfidence = 0.95

// SchemeYield is one scheme's outcome at one sweep config, with the
// interval on its yield at the sweep confidence.
type SchemeYield struct {
	Scheme string  `json:"scheme"`
	Yield  float64 `json:"yield"`
	Lost   int     `json:"lost"`
	Interval
}

// SweepEval is the evaluation of one sweep config on the regular cache
// organisation: the derived limits, the population's mean performance
// and leakage, and the base plus per-scheme yields.
type SweepEval struct {
	Config SweepConfig `json:"config"`
	Limits Limits      `json:"limits"`
	// MeanLatencyPS and MeanLeakageW are population means — the
	// performance and power axes of the Pareto reduction.
	MeanLatencyPS float64 `json:"mean_latency_ps"`
	MeanLeakageW  float64 `json:"mean_leakage_w"`
	// BaseYield is the yield-unaware sellable fraction; BaseLost the
	// chips it loses; BaseCI the interval on BaseYield at the sweep
	// confidence.
	BaseYield float64  `json:"base_yield"`
	BaseLost  int      `json:"base_lost"`
	BaseCI    Interval `json:"base_ci"`
	// Yields are the per-scheme outcomes, in option scheme order.
	Yields []SchemeYield `json:"yields"`
}

// SweepRunOptions tune RunSweep.
type SweepRunOptions struct {
	// Schemes evaluated per config; nil means YAPD, VACA, Hybrid.
	Schemes []Scheme
	// OnEval observes each completed evaluation with running done/total
	// counts. It is called on RunSweep's goroutine, in the planner's
	// evaluation order, so done rises by one per call.
	OnEval func(ev SweepEval, done, total int)
}

// DefaultSweepSchemes is the scheme set sweeps evaluate when none is
// given: the paper's YAPD, VACA and (vertical) Hybrid.
func DefaultSweepSchemes() []Scheme {
	return []Scheme{YAPD{}, VACA{}, Hybrid{}}
}

// RunSweep executes a plan: cluster by cluster, in plan order, it
// builds the DeltaBuilder base once, delta-builds each unit's regular
// population from the retained draws into the builder's one reused
// arena (DeltaBuilder.BuildCtx), and evaluates every config sharing
// that population before the next unit overwrites it. Configs are
// evaluated on the regular organisation only, so no unit derives or
// allocates an H-YAPD population. Every build spreads its batches over
// all CPUs. Evaluations are returned densely indexed by
// SweepConfig.Index — spec order, independent of the planner's
// cheapest-first evaluation order. Cancellation is polled between
// batches inside builds and between configs outside them; the first
// error stops the sweep. When ctx carries an obs.Scope, its progress
// counter runs in configs (not chips).
func RunSweep(ctx context.Context, plan *SweepPlan, opt SweepRunOptions) ([]SweepEval, error) {
	schemes := opt.Schemes
	if schemes == nil {
		schemes = DefaultSweepSchemes()
	}
	total := len(plan.Configs)
	scope := obs.ScopeFrom(ctx)
	scope.SetProgressTotal(int64(total))

	evals := make([]SweepEval, total)
	done := 0
	for ci := range plan.Clusters {
		if err := runCluster(ctx, plan, &plan.Clusters[ci], schemes, evals, &done, total, opt.OnEval); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	obs.C("core_sweep_configs_total").Add(int64(total))
	return evals, nil
}

// runCluster evaluates one geometry cluster: base build, then units in
// planned order. A unit's population lives only until the next unit's
// BuildCtx.
func runCluster(ctx context.Context, plan *SweepPlan, cl *SweepCluster, schemes []Scheme,
	evals []SweepEval, done *int, total int, onEval func(SweepEval, int, int)) error {
	sp := obs.StartSpanCtx(ctx, "sweep_cluster")
	defer sp.End()
	db, err := NewDeltaBuilderCtx(ctx, PopulationConfig{
		N:    plan.Spec.N,
		Seed: plan.Spec.Seed,
		Tech: &cl.Base,
		Geom: &cl.Geometry,
	})
	if err != nil {
		return err
	}
	obs.C("core_sweep_base_builds_total").Inc()

	for ui := range cl.Units {
		u := &cl.Units[ui]
		if err := ctx.Err(); err != nil {
			return err
		}
		usp := obs.StartSpanCtx(ctx, "sweep_unit")
		reg, err := db.BuildCtx(ctx, u.Tech)
		if err != nil {
			usp.End()
			return err
		}
		if u.Parts.Any() {
			obs.C("core_sweep_delta_builds_total").Inc()
		} else {
			obs.C("core_sweep_copy_builds_total").Inc()
		}
		for _, idx := range u.Configs {
			if err := ctx.Err(); err != nil {
				usp.End()
				return err
			}
			ev := evalSweepConfig(plan.Configs[idx], reg, schemes)
			evals[idx] = ev
			*done++
			obs.ScopeFrom(ctx).AddProgress(1)
			if onEval != nil {
				onEval(ev, *done, total)
			}
		}
		usp.End()
	}
	return nil
}

// evalSweepConfig derives limits from the population itself (each
// config is its own reference, exactly as a standalone study would)
// and evaluates base plus scheme yields and the population means.
func evalSweepConfig(cfg SweepConfig, reg *Population, schemes []Scheme) SweepEval {
	lim := DeriveLimits(reg, cfg.Constraints)
	bd := BreakdownLosses(reg, lim, schemes...)
	ev := SweepEval{
		Config:    cfg,
		Limits:    lim,
		BaseYield: bd.Yield(-1),
		BaseLost:  bd.BaseTotal,
		BaseCI:    bd.YieldCI(-1, sweepConfidence),
		Yields:    make([]SchemeYield, len(schemes)),
	}
	for i := range schemes {
		ev.Yields[i] = SchemeYield{
			Scheme:   bd.Schemes[i].Scheme,
			Yield:    bd.Yield(i),
			Lost:     bd.Schemes[i].Total,
			Interval: bd.YieldCI(i, sweepConfidence),
		}
	}
	lats, leaks := reg.Latencies(), reg.Leakages()
	var sumLat, sumLeak float64
	for i := range lats {
		sumLat += lats[i]
		sumLeak += leaks[i]
	}
	if n := float64(len(lats)); n > 0 {
		ev.MeanLatencyPS = sumLat / n
		ev.MeanLeakageW = sumLeak / n
	}
	return ev
}

// ParetoPoint is one candidate of a frontier reduction: yield is
// maximised, latency and leakage are minimised.
type ParetoPoint struct {
	Yield     float64
	LatencyPS float64
	LeakageW  float64
}

// dominates reports whether a is at least as good as b on every axis
// and strictly better on at least one.
func (a ParetoPoint) dominates(b ParetoPoint) bool {
	if a.Yield < b.Yield || a.LatencyPS > b.LatencyPS || a.LeakageW > b.LeakageW {
		return false
	}
	return a.Yield > b.Yield || a.LatencyPS < b.LatencyPS || a.LeakageW < b.LeakageW
}

// ParetoFrontier returns the indices of the non-dominated points, in
// ascending index order. Exactly equal points do not dominate each
// other, so ties all stay on the frontier — the reduction is
// deterministic and order-independent.
func ParetoFrontier(pts []ParetoPoint) []int {
	var out []int
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i != j && q.dominates(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// SweepFrontiers reduces a complete evaluation set into one Pareto
// frontier per scheme (plus "Base"): the config indices whose (yield,
// mean latency, mean leakage) triple no other config dominates under
// that scheme. Evals must be the dense RunSweep result.
func SweepFrontiers(evals []SweepEval) map[string][]int {
	if len(evals) == 0 {
		return map[string][]int{}
	}
	names := []string{"Base"}
	for _, y := range evals[0].Yields {
		names = append(names, y.Scheme)
	}
	out := make(map[string][]int, len(names))
	pts := make([]ParetoPoint, len(evals))
	for ni, name := range names {
		for i, ev := range evals {
			y := ev.BaseYield
			if ni > 0 {
				y = ev.Yields[ni-1].Yield
			}
			pts[i] = ParetoPoint{Yield: y, LatencyPS: ev.MeanLatencyPS, LeakageW: ev.MeanLeakageW}
		}
		out[name] = ParetoFrontier(pts)
	}
	return out
}
