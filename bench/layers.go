package main

import (
	"bytes"
	"context"
	"encoding/json"
	"time"

	"yieldcache"
	"yieldcache/internal/circuit"
	"yieldcache/internal/core"
	"yieldcache/internal/sram"
	"yieldcache/internal/variation"
)

// The functions below replay one request's inputs through one layer's
// public entry points, for the traced run. Each mirrors what the server
// does for that request: the same population size, seed, constraints,
// scheme sets and estimator settings.

// maxReplayChips caps the chips of the single-thread sampling and
// kernel replay; per-chip cost is what it reports.
const maxReplayChips = 1024

// replayChips times the two halves of the measurement engine on chips
// [0, n) of one population, single-threaded in sram.BatchWidth batches:
// variation sampling (Evaluator.Sample) of every batch, then the SoA
// kernel (Evaluator.EvalPair) on the retained draw sets.
func replayChips(t *tracer, parent, step int, tech circuit.Tech, seed int64, n int) {
	n = min(n, maxReplayChips)
	model := sram.NewModel(tech, false)
	ev := model.NewEvaluator(variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), seed).NewScratch())
	defer ev.Release()
	draws := make([]sram.DrawSet, (n+sram.BatchWidth-1)/sram.BatchWidth)
	var ids [sram.BatchWidth]int

	start := time.Now()
	for k := range draws {
		lo := k * sram.BatchWidth
		bn := min(sram.BatchWidth, n-lo)
		for j := 0; j < bn; j++ {
			ids[j] = lo + j
		}
		ev.Sample(ids[:bn], &draws[k])
	}
	mid := time.Now()
	var reg, hor [sram.BatchWidth]sram.CacheMeasurement
	var regV, horV [sram.BatchWidth]*sram.CacheMeasurement
	for j := range regV {
		regV[j], horV[j] = &reg[j], &hor[j]
	}
	for k := range draws {
		bn := draws[k].Len()
		ev.EvalPair(&draws[k], regV[:bn], horV[:bn], nil)
	}
	end := time.Now()
	t.add(span{Parent: parent, Request: step, Name: "sample", Start: start, End: mid, Size: n})
	t.add(span{Parent: parent, Request: step, Name: "kernel", Start: mid, End: end, Size: n})
}

// studyEstimate is the estimator the server arms on every study build:
// a snapshot every stream interval into a sink, or every millisecond
// under a precision target.
func studyEstimate(targetCI float64) *yieldcache.EstimateConfig {
	ec := &yieldcache.EstimateConfig{
		Interval:   250 * time.Millisecond,
		Confidence: 0.95,
		Sink:       func(*yieldcache.YieldEstimate) {},
	}
	if targetCI > 0 {
		ec.Interval = time.Millisecond
		ec.TargetCIWidth = targetCI
	}
	return ec
}

// replayStudy replays a study request through the build (NewStudyCtx
// with the server's estimator) and classification layers.
func replayStudy(ctx context.Context, t *tracer, parent, step int, seed int64, chips int, targetCI float64, onPath bool) error {
	var st *yieldcache.Study
	err := t.time(parent, step, "build", onPath, func() (int, error) {
		var err error
		st, err = yieldcache.NewStudyCtx(ctx, yieldcache.StudyConfig{Chips: chips, Seed: seed, Estimate: studyEstimate(targetCI)})
		if err != nil {
			return 0, err
		}
		return len(st.Regular.Chips), nil
	})
	if err != nil {
		return err
	}
	return t.time(parent, step, "classify", onPath, func() (int, error) {
		classifyStudy(st)
		return 0, nil
	})
}

// replayBuildNoEstimate times the same population build with the
// estimator off, over the chips the estimated build kept.
func replayBuildNoEstimate(ctx context.Context, t *tracer, parent, step int, seed int64, chips int) error {
	return t.time(parent, step, "build.noest", false, func() (int, error) {
		_, err := yieldcache.NewStudyCtx(ctx, yieldcache.StudyConfig{Chips: chips, Seed: seed})
		return chips, err
	})
}

var (
	regularSchemes    = []yieldcache.Scheme{yieldcache.SchemeYAPD(), yieldcache.SchemeVACA(), yieldcache.SchemeHybrid(false)}
	horizontalSchemes = []yieldcache.Scheme{yieldcache.SchemeHYAPD(), yieldcache.SchemeVACA(), yieldcache.SchemeHybrid(true)}
	extraConstraints  = []yieldcache.Constraints{yieldcache.Relaxed(), yieldcache.Strict()}
)

// classifyStudy derives every table a study response carries, as the
// server does for the default scheme set.
func classifyStudy(st *yieldcache.Study) {
	st.Breakdown(regularSchemes...)
	st.BreakdownHorizontal(horizontalSchemes...)
	st.Totals(extraConstraints, regularSchemes...)
	st.TotalsHorizontal(extraConstraints, horizontalSchemes...)
	st.Figure8()
	st.SavedConfigurations()
}

// replayEncode decodes a response body into v and times encoding it as
// the server does (two-space indent).
func replayEncode(t *tracer, parent, step int, body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return err
	}
	var buf bytes.Buffer
	return t.time(parent, step, "encode", true, func() (int, error) {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err := enc.Encode(v)
		return buf.Len(), err
	})
}

// replaySweep replays a sweep request through the planner, the base and
// delta builds, per-config classification, the Pareto reduction and the
// two-bin economics. It returns the plan and the config evaluations.
func replaySweep(ctx context.Context, t *tracer, parent, step int, spec yieldcache.SweepSpec) (*yieldcache.SweepPlan, []core.SweepEval, error) {
	var plan *yieldcache.SweepPlan
	if err := t.time(parent, step, "sweep.plan", true, func() (int, error) {
		var err error
		plan, err = yieldcache.PlanSweep(spec)
		return 0, err
	}); err != nil {
		return nil, nil, err
	}
	schemes := core.DefaultSweepSchemes()
	evals := make([]core.SweepEval, len(plan.Configs))
	for ci := range plan.Clusters {
		cl := &plan.Clusters[ci]
		var db *core.DeltaBuilder
		if err := t.time(parent, step, "sweep.base_build", true, func() (int, error) {
			var err error
			db, err = core.NewDeltaBuilderCtx(ctx, core.PopulationConfig{
				N: plan.Spec.N, Seed: plan.Spec.Seed, Tech: &cl.Base, Geom: &cl.Geometry})
			return plan.Spec.N, err
		}); err != nil {
			return nil, nil, err
		}
		pops := make([]*core.Population, len(cl.Units))
		for ui := range cl.Units {
			name := "sweep.delta_build"
			if !cl.Units[ui].Parts.Any() {
				name = "sweep.copy_build" // the grid origin: the base populations, copied
			}
			if err := t.time(parent, step, name, true, func() (int, error) {
				var err error
				pops[ui], _, err = db.BuildPairCtx(ctx, cl.Units[ui].Tech)
				return plan.Spec.N, err
			}); err != nil {
				return nil, nil, err
			}
		}
		t.time(parent, step, "sweep.classify", true, func() (int, error) {
			for ui, u := range cl.Units {
				for _, idx := range u.Configs {
					evals[idx] = evalConfig(plan.Configs[idx], pops[ui], schemes)
				}
			}
			return 0, nil
		})
	}
	t.time(parent, step, "sweep.frontier", true, func() (int, error) {
		yieldcache.SweepFrontiers(evals)
		return 0, nil
	})
	err := t.time(parent, step, "econ", true, func() (int, error) {
		_, err := yieldcache.SweepEconomics(evals, yieldcache.DefaultCostModel(), 5)
		return 0, err
	})
	return plan, evals, err
}

// evalConfig classifies one sweep config against limits derived from
// its own population. It must mirror core.evalSweepConfig, which is
// unexported, as replaySweep must mirror RunSweep's per-cluster loop: a
// change to either in internal/core has to be copied here, or the sweep
// layer metrics time a copy that no longer matches the engine the
// server runs. A traced sweep-grid run fails when the copy's
// evaluations differ from the server's response.
func evalConfig(cfg core.SweepConfig, reg *core.Population, schemes []core.Scheme) core.SweepEval {
	lim := core.DeriveLimits(reg, cfg.Constraints)
	bd := core.BreakdownLosses(reg, lim, schemes...)
	ev := core.SweepEval{Config: cfg, Limits: lim, BaseYield: bd.Yield(-1), BaseLost: bd.BaseTotal,
		Yields: make([]core.SchemeYield, len(schemes))}
	for i := range schemes {
		ev.Yields[i] = core.SchemeYield{Scheme: bd.Schemes[i].Scheme, Yield: bd.Yield(i), Lost: bd.Schemes[i].Total}
	}
	lats, leaks := reg.Latencies(), reg.Leakages()
	var sumLat, sumLeak float64
	for i := range lats {
		sumLat += lats[i]
		sumLeak += leaks[i]
	}
	if n := float64(len(lats)); n > 0 {
		ev.MeanLatencyPS, ev.MeanLeakageW = sumLat/n, sumLeak/n
	}
	return ev
}
