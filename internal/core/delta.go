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
// sweep point. It builds the base population once, in the regular
// organisation only, retaining each batch's DrawSet and leakage
// aggregates; BuildCtx then re-evaluates only the measurement parts the
// technology diff touches:
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
//     halves, still skipping sampling;
//   - no diff at all returns the base population itself.
//
// Every BuildCtx result is bit-identical to the regular population of
// a full Build of the same configuration at the new technology: the
// kernel preserves draw and accumulation order, and cached aggregates
// are the exact floats a full build computes. BuildCtx evaluates into
// one chip arena the builder reuses, so a sweep unit allocates no chip
// storage; BuildPairCtx, which also derives the H-YAPD organisation,
// returns populations in fresh arenas.
//
// The retained draws cost about 7.7 KB per chip (N=2000 ≈ 15 MB), held
// in a few flat slabs per builder, so the builder is an opt-in for
// sweep-shaped workloads rather than the default build path. Chips are
// evaluated in fixed batches of sram.BatchWidth spread over cfg.Workers
// goroutines; a batch's results depend only on its draws, so they are
// independent of the worker count. A DeltaBuilder is not safe for
// concurrent use.
type DeltaBuilder struct {
	cfg      PopulationConfig
	baseTech circuit.Tech
	geom     sram.Geometry
	sampler  *variation.Sampler
	draws    []sram.DrawSet   // per batch, carved by sram.RetainedBatches
	leaks    []sram.LeakState // per batch, likewise
	base     *Population
	arena    []Chip // BuildCtx's chips, wired on its first delta build
}

// NewDeltaBuilderCtx builds the base population for cfg on cfg.Workers
// goroutines (0 means GOMAXPROCS, as for Build) and retains the
// per-batch draws and leakage aggregates for delta re-evaluation; its
// allocation count does not grow with cfg.N. It rejects the
// configurations Build rejects, and a non-nil cfg.Estimate, which the
// builder does not support.
// The base build polls ctx once per sram.BatchWidth-chip batch and
// returns ctx.Err() early when it fires, so a sweep job can abandon a
// large base build the moment its request is cancelled.
func NewDeltaBuilderCtx(ctx context.Context, cfg PopulationConfig) (*DeltaBuilder, error) {
	if cfg.Estimate != nil {
		return nil, errors.New("core: the delta builder does not support PopulationConfig.Estimate")
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	model := newModelWithGeom(*cfg.Tech, false, cfg.Geom)
	sampler := variation.NewSampler(*cfg.Spec, *cfg.Fact, cfg.Seed)
	geom := model.Geom
	d := &DeltaBuilder{
		cfg:      cfg,
		baseTech: *cfg.Tech,
		geom:     geom,
		sampler:  sampler,
	}

	cancelled, stopWatch := watchCancel(ctx)
	defer stopWatch()
	chips := newChipArena(cfg.N, geom, cancelled)
	d.draws, d.leaks = sram.RetainedBatches(cfg.N, geom)
	forEachBatch(cancelled, nil, nil, cfg.N, cfg.Workers, model, sampler, func(ev *sram.Evaluator, k, lo, bn int) {
		ids, v := batchIDs(lo, bn), measSlots(chips, lo, bn)
		ev.Sample(ids[:bn], &d.draws[k])
		ev.Eval(&d.draws[k], v[:bn], &d.leaks[k])
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.base = &Population{Chips: chips, Model: model, Seed: cfg.Seed}
	return d, nil
}

// BuildCtx evaluates the retained chip draws under tech on the
// builder's worker count, reusing everything the technology diff
// against the base does not touch, and returns the regular population.
// It is bit-identical to the regular population of Build with the
// builder's configuration and Tech set to tech. A tech with no diff
// returns the base population itself without kernel work. Any other
// result lives in the builder's one reused chip arena: it stays valid
// only until the next BuildCtx call, which overwrites it, so a caller
// that keeps populations across calls uses BuildPairCtx. Cancellation
// is polled once per batch like NewDeltaBuilderCtx: on cancellation it
// returns ctx.Err() and a nil population; the builder itself stays
// valid for further calls.
func (d *DeltaBuilder) BuildCtx(ctx context.Context, tech circuit.Tech) (*Population, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !sram.DiffTech(d.baseTech, tech).Any() {
		return d.base, nil
	}
	if d.arena == nil {
		d.arena = newChipArena(d.cfg.N, d.geom, nil)
	}
	return d.build(ctx, tech, d.arena)
}

// BuildPairCtx is BuildCtx into a fresh arena, plus the H-YAPD
// organisation DeriveHorizontal derives from it. Both results stay
// valid for the builder's lifetime; a tech with no diff copies the base
// population. Sweeps use BuildCtx: this pair form remains for callers
// that keep every unit's populations.
func (d *DeltaBuilder) BuildPairCtx(ctx context.Context, tech circuit.Tech) (regular, horizontal *Population, err error) {
	regular, err = d.build(ctx, tech, newChipArena(d.cfg.N, d.geom, nil))
	if err != nil {
		return nil, nil, err
	}
	return regular, DeriveHorizontal(regular), nil
}

// build is the one batch loop of BuildCtx and BuildPairCtx: it
// re-evaluates the retained draws under tech into chips.
func (d *DeltaBuilder) build(ctx context.Context, tech circuit.Tech, chips []Chip) (*Population, error) {
	parts := sram.DiffTech(d.baseTech, tech)
	model := newModelWithGeom(tech, false, &d.geom)
	cancelled, stopWatch := watchCancel(ctx)
	defer stopWatch()
	forEachBatch(cancelled, nil, nil, d.cfg.N, d.cfg.Workers, model, d.sampler, func(ev *sram.Evaluator, k, lo, bn int) {
		base, v := measSlots(d.base.Chips, lo, bn), measSlots(chips, lo, bn)
		ev.EvalDelta(&d.draws[k], parts, base[:bn], &d.leaks[k], v[:bn])
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Population{Chips: chips, Model: model, Seed: d.cfg.Seed}, nil
}
