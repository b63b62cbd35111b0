package core

import (
	"context"
	"sync/atomic"

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
// default build path. Chips are evaluated in fixed sequential batches
// of sram.BatchWidth, so results are independent of any worker
// configuration; a DeltaBuilder is not safe for concurrent use.
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

// NewDeltaBuilderCtx builds the base population pair for cfg
// (cfg.Workers, cfg.Checkpoint and cfg.Estimate are ignored; the build
// is sequential) and retains the per-batch draws and leakage aggregates
// for delta re-evaluation. It rejects the configurations Build rejects.
// The base build polls ctx once per sram.BatchWidth-chip batch and
// returns ctx.Err() early when it fires, so a sweep job can abandon a
// large base build the moment its request is cancelled.
func NewDeltaBuilderCtx(ctx context.Context, cfg PopulationConfig) (*DeltaBuilder, error) {
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

	ev := regModel.NewEvaluator(sampler.NewScratch())
	defer ev.Release()
	regChips := newChipArena(cfg.N, geom, cancelled)
	horChips := newChipArena(cfg.N, geom, cancelled)

	nBatches := (cfg.N + sram.BatchWidth - 1) / sram.BatchWidth
	d.draws = make([]*sram.DrawSet, nBatches)
	d.leaks = make([]*sram.LeakState, nBatches)
	var ids [sram.BatchWidth]int
	var regV, horV [sram.BatchWidth]*sram.CacheMeasurement
	for k := 0; k < nBatches; k++ {
		if cancelled.Load() {
			return nil, ctx.Err()
		}
		lo := k * sram.BatchWidth
		bn := min(sram.BatchWidth, cfg.N-lo)
		for j := 0; j < bn; j++ {
			ids[j] = lo + j
			regV[j] = &regChips[lo+j].Meas
			horV[j] = &horChips[lo+j].Meas
		}
		ds := new(sram.DrawSet)
		ls := new(sram.LeakState)
		ev.Sample(ids[:bn], ds)
		ev.EvalPair(ds, regV[:bn], horV[:bn], ls)
		d.draws[k] = ds
		d.leaks[k] = ls
	}
	if cancelled.Load() {
		return nil, ctx.Err()
	}
	d.baseReg = &Population{Chips: regChips, Model: regModel, Seed: cfg.Seed}
	d.baseHor = &Population{Chips: horChips, Model: newModelWithGeom(*cfg.Tech, true, cfg.Geom), Seed: cfg.Seed}
	return d, nil
}

// watchCancel translates ctx cancellation into an atomic flag the batch
// loops can poll without touching the context. The returned stop func
// must be called to release the watcher goroutine; with no Done channel
// the flag is a shared never-set atomic and stop is a no-op.
func watchCancel(ctx context.Context) (*atomic.Bool, func()) {
	done := ctx.Done()
	if done == nil {
		return &neverCancelled, func() {}
	}
	var flag atomic.Bool
	stop := make(chan struct{})
	go func() {
		select {
		case <-done:
			flag.Store(true)
		case <-stop:
		}
	}()
	return &flag, func() { close(stop) }
}

var neverCancelled atomic.Bool

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

// BuildPairCtx evaluates the retained chip draws under tech, reusing
// everything the technology diff against the base does not touch. The
// result is bit-identical to Build of the builder's configuration with
// Tech set to tech. Cancellation is polled once per batch like
// NewDeltaBuilderCtx: on cancellation it returns ctx.Err() and nil
// populations; the builder itself stays valid for further calls.
func (d *DeltaBuilder) BuildPairCtx(ctx context.Context, tech circuit.Tech) (regular, horizontal *Population, err error) {
	parts := sram.DiffTech(d.baseTech, tech)
	regModel := newModelWithGeom(tech, false, &d.geom)
	cancelled, stopWatch := watchCancel(ctx)
	defer stopWatch()
	regChips := newChipArena(d.cfg.N, d.geom, cancelled)
	horChips := newChipArena(d.cfg.N, d.geom, cancelled)

	if !parts.Any() {
		for i := range regChips {
			if i&4095 == 0 && cancelled.Load() {
				return nil, nil, ctx.Err()
			}
			copyMeasInto(&regChips[i].Meas, &d.baseReg.Chips[i].Meas)
			copyMeasInto(&horChips[i].Meas, &d.baseHor.Chips[i].Meas)
		}
	} else {
		ev := regModel.NewEvaluator(d.sampler.NewScratch())
		defer ev.Release()
		var regV, horV, baseV [sram.BatchWidth]*sram.CacheMeasurement
		for k, ds := range d.draws {
			if cancelled.Load() {
				return nil, nil, ctx.Err()
			}
			lo := k * sram.BatchWidth
			bn := ds.Len()
			for j := 0; j < bn; j++ {
				regV[j] = &regChips[lo+j].Meas
				horV[j] = &horChips[lo+j].Meas
				baseV[j] = &d.baseReg.Chips[lo+j].Meas
			}
			ev.EvalPairDelta(ds, parts, baseV[:bn], d.leaks[k], regV[:bn], horV[:bn])
		}
	}
	if cancelled.Load() {
		return nil, nil, ctx.Err()
	}
	regular = &Population{Chips: regChips, Model: regModel, Seed: d.cfg.Seed}
	horizontal = &Population{Chips: horChips, Model: newModelWithGeom(tech, true, &d.geom), Seed: d.cfg.Seed}
	return regular, horizontal, nil
}
