package yieldcache

// Design-space exploration: sweep a grid over technology parameters,
// cache geometries and constraint sets, evaluating every point from one
// shared set of variation draws (common random numbers via
// core.DeltaBuilder) and reducing the results to Pareto frontiers.
// docs/SWEEPS.md is the reference for the spec schema and guarantees.

import (
	"context"

	"yieldcache/internal/circuit"
	"yieldcache/internal/core"
	"yieldcache/internal/sram"
)

// Re-exports for the sweep surface.
type (
	// Tech is the technology parameter set every config perturbs.
	Tech = circuit.Tech
	// CacheGeometry is a cache organisation (ways × banks × rows ×
	// bits × paths).
	CacheGeometry = sram.Geometry
	// SweepSpec names a design-space grid; zero dimensions fall back to
	// the paper defaults.
	SweepSpec = core.SweepSpec
	// TechAxis is one swept technology parameter and its grid values.
	TechAxis = core.TechAxis
	// SweepPlan is a planned sweep: resolved spec, dense config list
	// and the delta-reuse evaluation structure.
	SweepPlan = core.SweepPlan
	// SweepConfig is one resolved design point.
	SweepConfig = core.SweepConfig
	// SweepStats counts the builds a plan performs and avoids.
	SweepStats = core.SweepStats
	// SweepEval is one config's evaluated yields, limits and population
	// means.
	SweepEval = core.SweepEval
	// SchemeYield is one scheme's yield at one config.
	SchemeYield = core.SchemeYield
	// SweepOptions tune RunSweep (scheme set, per-config callback);
	// every sweep build uses all CPUs.
	SweepOptions = core.SweepRunOptions
	// ParetoPoint is one frontier candidate (maximise yield, minimise
	// latency and leakage).
	ParetoPoint = core.ParetoPoint
)

// DefaultTech returns the 45 nm PTM technology every study and sweep
// starts from.
func DefaultTech() Tech { return circuit.PTM45() }

// PaperGeometry returns the paper's 16 KB 4-way cache organisation.
func PaperGeometry() CacheGeometry { return sram.Paper16KB() }

// SweepTechParams lists the canonical technology parameter names a
// TechAxis may sweep.
func SweepTechParams() []string { return core.TechParamNames() }

// PlanSweep validates a spec and plans the evaluation order that
// maximises draw reuse: one full build per geometry, delta builds for
// every distinct technology, shared populations across constraint
// sets. See core.PlanSweep.
func PlanSweep(spec SweepSpec) (*SweepPlan, error) { return core.PlanSweep(spec) }

// RunSweep executes a plan, returning evaluations densely indexed by
// SweepConfig.Index. Every config is a pure function of the plan, so a
// caller that loses a run midway runs the plan again and gets the same
// evaluations bit for bit.
func RunSweep(ctx context.Context, plan *SweepPlan, opt SweepOptions) ([]SweepEval, error) {
	return core.RunSweep(ctx, plan, opt)
}

// SweepFrontiers reduces complete evaluations into one Pareto frontier
// per scheme (plus "Base"): config indices no other config dominates
// on (yield, mean latency, mean leakage).
func SweepFrontiers(evals []SweepEval) map[string][]int { return core.SweepFrontiers(evals) }

// ParetoFrontier returns the indices of the non-dominated points.
func ParetoFrontier(pts []ParetoPoint) []int { return core.ParetoFrontier(pts) }

// SweepResult bundles a completed sweep: the plan, every evaluation in
// spec order, the per-scheme Pareto frontiers and the reuse stats.
type SweepResult struct {
	Plan      *SweepPlan
	Evals     []SweepEval
	Frontiers map[string][]int
	Stats     SweepStats
}

// RunSweepCtx plans and runs a sweep in one call — the facade
// counterpart of NewStudyCtx for grid-shaped questions.
func RunSweepCtx(ctx context.Context, spec SweepSpec, opt SweepOptions) (*SweepResult, error) {
	plan, err := core.PlanSweep(spec)
	if err != nil {
		return nil, err
	}
	evals, err := core.RunSweep(ctx, plan, opt)
	if err != nil {
		return nil, err
	}
	return &SweepResult{
		Plan:      plan,
		Evals:     evals,
		Frontiers: core.SweepFrontiers(evals),
		Stats:     plan.Stats(),
	}, nil
}

// SweepEconomics prices every evaluation under the cost model using
// the generalised two-bin Table 6 pricing (econ.CostModel.FromYields):
// base-passing chips at full price, scheme-saved chips degraded by
// degradedCPIPct. Row i holds the base result followed by one result
// per scheme, aligned with Evals[i].Yields.
func SweepEconomics(evals []SweepEval, model CostModel, degradedCPIPct float64) ([][]EconResult, error) {
	out := make([][]EconResult, len(evals))
	for i, ev := range evals {
		row := make([]EconResult, 0, len(ev.Yields)+1)
		base, err := model.FromYields("Base", ev.BaseYield, ev.BaseYield, 0)
		if err != nil {
			return nil, err
		}
		row = append(row, base)
		for _, y := range ev.Yields {
			r, err := model.FromYields(y.Scheme, ev.BaseYield, y.Yield, degradedCPIPct)
			if err != nil {
				return nil, err
			}
			row = append(row, r)
		}
		out[i] = row
	}
	return out, nil
}
