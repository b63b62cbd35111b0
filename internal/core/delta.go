package core

import (
	"context"
	"errors"

	"yieldcache/internal/circuit"
	"yieldcache/internal/sram"
	"yieldcache/internal/variation"
)

// DeltaBuilder makes dense technology sweeps nearly free by sharing
// one set of variation draws (common random numbers) across every
// sweep point. It builds the base population pair once, retaining each
// batch's DrawSet and leakage aggregates; BuildPairCtx then re-evaluates
// only the measurement parts the technology diff touches:
//
//   - sampling never reruns — the retained draws are reused verbatim,
//     which is also what makes adjacent grid points directly
//     comparable (no Monte Carlo noise between them);
//   - a diff confined to leakage scaling (CellLeakage,
//     PeripheryLeakFrac) rescales cached aggregates without touching
//     draws at all;
//   - a diff confined to the leakage exponential (SubVtSlope)
//     recomputes leakage columns and copies the delay side, and vice
//     versa for delay-only diffs (Alpha, CouplingFrac, DiffusionFrac,
//     sense-margin shape);
//   - parameters entering both (Vdd, VtNominal, DIBL) re-evaluate both
//     halves, still skipping sampling.
//
// Every BuildPairCtx result is bit-identical to a full Build of the
// same configuration at the new technology:
// the kernel preserves draw and accumulation order, and cached
// aggregates are the exact floats a full build computes.
//
// The retained draws cost about 7.7 KB per chip (N=2000 ≈ 15 MB), so
// the builder is an opt-in for sweep-shaped workloads rather than the
// default build path. Chips are evaluated in fixed batches of
// sram.BatchWidth spread over cfg.Workers goroutines; a batch's
// results depend only on its draws, so they are independent of the
// worker count. A DeltaBuilder is not safe for concurrent use.
type DeltaBuilder struct {
	cfg      PopulationConfig
	baseTech circuit.Tech
	geom     sram.Geometry
	sampler  *variation.Sampler
	draws    []*sram.DrawSet
	leaks    []*sram.LeakState
	baseReg  *Population
	baseHor  *Population
}

// NewDeltaBuilderCtx builds the base population pair for cfg on
// cfg.Workers goroutines (0 means GOMAXPROCS, as for Build) and retains
// the per-batch draws and leakage aggregates for delta re-evaluation.
// It rejects the configurations Build rejects, and a non-nil
// cfg.Checkpoint or cfg.Estimate, which the builder does not support.
// The base build polls ctx once per sram.BatchWidth-chip batch and
// returns ctx.Err() early when it fires, so a sweep job can abandon a
// large base build the moment its request is cancelled.
func NewDeltaBuilderCtx(ctx context.Context, cfg PopulationConfig) (*DeltaBuilder, error) {
	if cfg.Checkpoint != nil {
		return nil, errors.New("core: the delta builder does not support PopulationConfig.Checkpoint")
	}
	if cfg.Estimate != nil {
		return nil, errors.New("core: the delta builder does not support PopulationConfig.Estimate")
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	regModel := newModelWithGeom(*cfg.Tech, false, cfg.Geom)
	sampler := variation.NewSampler(*cfg.Spec, *cfg.Fact, cfg.Seed)
	geom := regModel.Geom
	d := &DeltaBuilder{
		cfg:      cfg,
		baseTech: *cfg.Tech,
		geom:     geom,
		sampler:  sampler,
	}

	cancelled, stopWatch := watchCancel(ctx)
	defer stopWatch()
	regChips := newChipArena(cfg.N, geom, cancelled)
	horChips := newChipArena(cfg.N, geom, cancelled)

	d.draws = make([]*sram.DrawSet, batchCount(cfg.N))
	d.leaks = make([]*sram.LeakState, batchCount(cfg.N))
	forEachBatch(cancelled, nil, frontier{}, 0, cfg.N, cfg.Workers, regModel, sampler, func(ev *sram.Evaluator, k, lo, bn int) {
		ids, regV, horV := batchSlots(regChips, horChips, lo, bn)
		ds := new(sram.DrawSet)
		ls := new(sram.LeakState)
		ev.Sample(ids[:bn], ds)
		ev.EvalPair(ds, regV[:bn], horV[:bn], ls)
		d.draws[k] = ds
		d.leaks[k] = ls
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.baseReg = &Population{Chips: regChips, Model: regModel, Seed: cfg.Seed}
	d.baseHor = &Population{Chips: horChips, Model: newModelWithGeom(*cfg.Tech, true, cfg.Geom), Seed: cfg.Seed}
	return d, nil
}

// Base returns the base-technology population pair the builder was
// constructed from.
func (d *DeltaBuilder) Base() (regular, horizontal *Population) {
	return d.baseReg, d.baseHor
}

// Parts returns the measurement parts a sweep to tech would
// re-evaluate, for callers that want to inspect sweep cost up front.
func (d *DeltaBuilder) Parts(tech circuit.Tech) sram.TechParts {
	return sram.DiffTech(d.baseTech, tech)
}

// BuildPairCtx evaluates the retained chip draws under tech on the
// builder's worker count, reusing everything the technology diff
// against the base does not touch. The result is bit-identical to
// Build of the builder's configuration with Tech set to tech.
// Cancellation is polled once per batch like NewDeltaBuilderCtx: on
// cancellation it returns ctx.Err() and nil populations; the builder
// itself stays valid for further calls.
func (d *DeltaBuilder) BuildPairCtx(ctx context.Context, tech circuit.Tech) (regular, horizontal *Population, err error) {
	parts := sram.DiffTech(d.baseTech, tech)
	regModel := newModelWithGeom(tech, false, &d.geom)
	cancelled, stopWatch := watchCancel(ctx)
	defer stopWatch()
	regChips := newChipArena(d.cfg.N, d.geom, cancelled)
	horChips := newChipArena(d.cfg.N, d.geom, cancelled)
	forEachBatch(cancelled, nil, frontier{}, 0, d.cfg.N, d.cfg.Workers, regModel, d.sampler, func(ev *sram.Evaluator, k, lo, bn int) {
		_, regV, horV := batchSlots(regChips, horChips, lo, bn)
		var baseV [sram.BatchWidth]*sram.CacheMeasurement
		for j := 0; j < bn; j++ {
			baseV[j] = &d.baseReg.Chips[lo+j].Meas
		}
		ev.EvalPairDelta(d.draws[k], parts, baseV[:bn], d.leaks[k], regV[:bn], horV[:bn])
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	regular = &Population{Chips: regChips, Model: regModel, Seed: d.cfg.Seed}
	horizontal = &Population{Chips: horChips, Model: newModelWithGeom(tech, true, &d.geom), Seed: d.cfg.Seed}
	return regular, horizontal, nil
}
