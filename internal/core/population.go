package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"yieldcache/internal/circuit"
	"yieldcache/internal/obs"
	"yieldcache/internal/sram"
	"yieldcache/internal/variation"
)

// PaperPopulationSize is the number of Monte Carlo chips the paper
// simulates (Section 5.1).
const PaperPopulationSize = 2000

// Chip is one simulated die: its id within the population and its
// evaluated cache.
type Chip struct {
	ID   int
	Meas sram.CacheMeasurement
}

// Population is a Monte Carlo sample of chips evaluated on one cache
// organisation.
type Population struct {
	Chips []Chip
	Model *sram.Model
	Seed  int64

	// Derived columns, computed once on first use. The returned slices
	// are shared: callers must treat them as read-only.
	colOnce sync.Once
	lats    []float64
	leaks   []float64
	leakAvg float64
}

// PopulationConfig parameterises Build.
type PopulationConfig struct {
	N       int   // number of chips; 0 means PaperPopulationSize
	Seed    int64 // master seed of the variation sampler
	Workers int   // parallel evaluation workers; 0 means GOMAXPROCS
	Tech    *circuit.Tech
	Spec    *variation.Spec
	Fact    *variation.Factors
	// Geom overrides the cache geometry; nil (the default) keeps the
	// paper's 16 KB organisation (sram.Paper16KB). Ways must stay within
	// the 2×2 variation mesh (1..4) and every dimension must be
	// positive; Build rejects any other geometry.
	Geom *sram.Geometry
	// Estimate arms streaming yield estimation (live confidence
	// intervals and, optionally, precision-targeted stopping); nil (the
	// default) adds nothing to the hot loop.
	Estimate *EstimateConfig
}

// fill rejects an out-of-range size or geometry and fills in the
// defaults.
func (c *PopulationConfig) fill() error {
	if c.N < 0 {
		return fmt.Errorf("core: chip count must not be negative, got %d", c.N)
	}
	if c.Geom != nil {
		if err := checkGeometry(*c.Geom); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if c.N == 0 {
		c.N = PaperPopulationSize
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Tech == nil {
		t := circuit.PTM45()
		c.Tech = &t
	}
	if c.Spec == nil {
		s := variation.Nassif45nm()
		c.Spec = &s
	}
	if c.Fact == nil {
		f := variation.PaperFactors()
		c.Fact = &f
	}
	return nil
}

// checkGeometry reports a geometry the engine cannot evaluate: the
// variation mesh is 2×2, so Ways must be 1..4, and every other
// dimension must be positive.
func checkGeometry(g sram.Geometry) error {
	if g.Ways < 1 || g.Ways > 4 {
		return fmt.Errorf("geometry ways must be 1..4 (the variation mesh is 2×2), got %d", g.Ways)
	}
	if g.BanksPerWay < 1 || g.RowsPerBank < 1 || g.BitsPerRow < 1 || g.PathsPerBank < 1 {
		return fmt.Errorf("geometry %dw×%db×%dr×%dc×%dp has a non-positive dimension",
			g.Ways, g.BanksPerWay, g.RowsPerBank, g.BitsPerRow, g.PathsPerBank)
	}
	return nil
}

// BuildResult is one Monte Carlo build: the regular organisation
// measured from the build's variation draws, and the final streaming
// yield estimate. The H-YAPD organisation is a pure function of it
// (DeriveHorizontal).
type BuildResult struct {
	Regular *Population
	// Estimate is nil unless PopulationConfig.Estimate armed
	// estimation. When its EarlyStop field is set, Regular is truncated
	// to the fully measured prefix at which the precision target was
	// met, and every chip in it is bit-identical to the same chip of an
	// untruncated build.
	Estimate *YieldEstimate
}

// Build samples every chip's variation tree once and measures the
// regular cache organisation from it; DeriveHorizontal derives the
// H-YAPD one from the result. Chip i is a pure function of (Seed, i),
// so both organisations see identical process variation (the paper's
// "same process variation parameters") and the result does not depend
// on cfg.Workers.
//
// Build returns an error for a negative N or an out-of-range Geom, and
// ctx.Err() when ctx is cancelled or its deadline passes mid-build.
//
// Workers run forEachBatch, sampling each batch into their evaluator's
// own draw set and evaluating it through the structure-of-arrays
// kernel, so the hot loop allocates nothing: measurement storage is
// sliced from flat arrays up front or, for a build that can stop early
// (a precision target), wired in chipSegment-chip segments as workers
// reach them, so it pays only for the chips it measures. When ctx
// carries an obs.Scope (the yieldd per-job path), spans land on its
// tracer, worker w on trace lane 2+w, and its progress counter advances
// once per batch.
func Build(ctx context.Context, cfg PopulationConfig) (BuildResult, error) {
	if err := cfg.fill(); err != nil {
		return BuildResult{}, err
	}
	scope := obs.ScopeFrom(ctx)
	scope.SetProgressTotal(int64(cfg.N))
	sp := obs.StartSpanCtx(ctx, "build_population/pair")
	defer sp.End()

	model := newModelWithGeom(*cfg.Tech, false, cfg.Geom)
	sampler := variation.NewSampler(*cfg.Spec, *cfg.Fact, cfg.Seed)

	// Cancellation: the workers poll one shared atomic per batch instead
	// of selecting on ctx.Done() in the hot loop. Started before the
	// arena so that its setup loop (millions of slice-header writes for
	// large N) can poll it too.
	cancelled, stopWatch := watchCancel(ctx)
	defer stopWatch()

	stopsEarly := cfg.Estimate != nil && cfg.Estimate.TargetCIWidth > 0
	chips, segs := newBuildArena(cfg.N, model.Geom, stopsEarly, cancelled)
	if cancelled.Load() {
		return BuildResult{}, ctx.Err()
	}

	est := newEstimator(cfg.Estimate, chips)
	forEachBatch(cancelled, sp, est, cfg.N, cfg.Workers, model, sampler, func(ev *sram.Evaluator, _, lo, bn int) {
		segs.wire(lo, lo+bn)
		ids, v := batchIDs(lo, bn), measSlots(chips, lo, bn)
		ev.Sample(ids[:bn], ev.Draws())
		ev.Eval(ev.Draws(), v[:bn], nil)
		scope.AddProgress(int64(bn))
	})
	if err := ctx.Err(); err != nil {
		return BuildResult{}, err
	}

	// Precision-targeted stop: truncate to the first look point where
	// the stopping rule fires, so the population and every statistic
	// derived from it are those the decision was made on (final CI
	// half-width <= target by construction). Chips workers measured past
	// it before their next poll are discarded. The truncation happens
	// in the Population literal: reassigning chips, which the workers
	// captured, would move its header to the heap.
	built, final := est.finish(cfg.N)
	if built < cfg.N {
		done, _ := scope.Progress()
		scope.SetProgressTotal(done)
	}

	obs.C("core_chips_built_total").Add(int64(built))
	return BuildResult{
		Regular:  &Population{Chips: chips[:built], Model: model, Seed: cfg.Seed},
		Estimate: final,
	}, nil
}

// DeriveHorizontal returns the H-YAPD organisation of reg, a regular
// population from Build or a DeltaBuilder: each chip derived from the
// same chip of reg by sram.DeriveHYAPD, in one fresh arena, under an
// H-YAPD model of reg's technology and geometry. The chips are wired
// and derived on GOMAXPROCS goroutines, each over a contiguous share:
// at the paper geometry derivation costs about 8% of a one-worker
// build, which a serial pass after a parallel build would add to a
// study's wall time.
func DeriveHorizontal(reg *Population) *Population {
	g, n := reg.Model.Geom, len(reg.Chips)
	chips := make([]Chip, n)
	share := max(1, (n+runtime.GOMAXPROCS(0)-1)/runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += share {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			wireChips(chips, lo, hi, g, nil)
			for i := lo; i < hi; i++ {
				sram.DeriveHYAPD(&reg.Chips[i].Meas, &chips[i].Meas, g)
			}
		}(lo, min(lo+share, n))
	}
	wg.Wait()
	return &Population{Chips: chips, Model: newModelWithGeom(reg.Model.Tech, true, &g), Seed: reg.Seed}
}

// batchIDs returns the ids of chips [lo, lo+bn), the first argument of
// a batch kernel call.
func batchIDs(lo, bn int) (ids [sram.BatchWidth]int) {
	for j := 0; j < bn; j++ {
		ids[j] = lo + j
	}
	return ids
}

// measSlots returns the measurement slots of chips [lo, lo+bn) of an
// arena, a destination (or delta base) of a batch kernel call.
func measSlots(chips []Chip, lo, bn int) (v [sram.BatchWidth]*sram.CacheMeasurement) {
	for j := 0; j < bn; j++ {
		v[j] = &chips[lo+j].Meas
	}
	return v
}

// newModelWithGeom builds an sram.Model and, when g is non-nil,
// replaces the default paper geometry. The measurement kernel is fully
// geometry-generic; only the variation mesh caps Ways at 4.
func newModelWithGeom(tech circuit.Tech, hyapd bool, g *sram.Geometry) *sram.Model {
	m := sram.NewModel(tech, hyapd)
	if g != nil {
		m.Geom = *g
	}
	return m
}

// chipSegment is the number of chips a build that can stop early wires
// at a time. A stop then leaves at most a few segments wired past the
// stop prefix, and each segment's arrays and one state check per batch
// cost nothing measurable.
const chipSegment = 512

// States of a segment of a segmentedArena.
const (
	segUnwired uint32 = iota
	segWiring
	segReady
)

// segmentedArena wires the chip arena of a build that can stop early,
// chipSegment chips at a time, the first time a batch reaches each
// segment, so the build pays only for the segments its workers reach.
type segmentedArena struct {
	chips []Chip
	geom  sram.Geometry
	state []atomic.Uint32 // per segment: segUnwired, segWiring or segReady
}

// newBuildArena returns the chip arena of a build: wired up front, with
// a nil segmentedArena, unless the build can stop early; then unwired,
// with the segmentedArena through which its workers wire it.
func newBuildArena(n int, g sram.Geometry, stopsEarly bool, cancelled *atomic.Bool) ([]Chip, *segmentedArena) {
	if !stopsEarly {
		return newChipArena(n, g, cancelled), nil
	}
	a := &segmentedArena{
		chips: make([]Chip, n),
		geom:  g,
		state: make([]atomic.Uint32, (n+chipSegment-1)/chipSegment),
	}
	return a.chips, a
}

// wire makes sure chips [lo, hi) are wired. The caller that moves a
// segment from unwired to wiring wires it, so each segment is wired
// exactly once; a caller that finds it being wired waits until it is
// ready, which orders the wiring before the caller's writes. Nil-safe:
// a build wired up front pays one nil check per batch.
func (a *segmentedArena) wire(lo, hi int) {
	if a == nil || hi <= lo {
		return
	}
	for s := lo / chipSegment; s <= (hi-1)/chipSegment; s++ {
		st := &a.state[s]
		if st.Load() == segReady {
			continue
		}
		if st.CompareAndSwap(segUnwired, segWiring) {
			wireChips(a.chips, s*chipSegment, min((s+1)*chipSegment, len(a.chips)), a.geom, nil)
			st.Store(segReady)
			continue
		}
		for st.Load() != segReady {
			runtime.Gosched()
		}
	}
}

// newChipArena allocates n chips and wires them as one segment. The
// setup loop polls cancelled periodically and returns the partially
// wired arena — the caller checks cancellation itself before using it.
func newChipArena(n int, g sram.Geometry, cancelled *atomic.Bool) []Chip {
	chips := make([]Chip, n)
	wireChips(chips, 0, n, g, cancelled)
	return chips
}

// wireChips sets the IDs of chips[lo:hi] and slices their per-chip
// measurement storage from three flat backing arrays sized for just
// that range, pre-sized by sram.Prepare. Full-capacity slice
// expressions keep a chip's append (which never happens in practice)
// from bleeding into its neighbour. A non-nil cancelled is polled every
// 4096 chips, and the range is left partly wired when it fires.
func wireChips(chips []Chip, lo, hi int, g sram.Geometry, cancelled *atomic.Bool) {
	n := hi - lo
	ways := make([]sram.WayMeasurement, n*g.Ways)
	banks := make([]sram.BankMeasurement, n*g.Ways*g.BanksPerWay)
	paths := make([]sram.PathMeasurement, n*g.Ways*g.BanksPerWay*g.PathsPerBank)
	for k := 0; k < n; k++ {
		if cancelled != nil && k&4095 == 0 && cancelled.Load() {
			return
		}
		c := &chips[lo+k]
		c.ID = lo + k
		c.Meas.Ways = ways[k*g.Ways : (k+1)*g.Ways : (k+1)*g.Ways]
		for w := range c.Meas.Ways {
			bo := (k*g.Ways + w) * g.BanksPerWay
			c.Meas.Ways[w].Banks = banks[bo : bo+g.BanksPerWay : bo+g.BanksPerWay]
			for b := range c.Meas.Ways[w].Banks {
				po := (bo + b) * g.PathsPerBank
				c.Meas.Ways[w].Banks[b].Paths = paths[po : po+g.PathsPerBank : po+g.PathsPerBank]
			}
		}
	}
}

// columns computes the latency and leakage columns once. Populations
// read from persisted files (or built by literal construction in tests)
// memoize lazily too, so the sync.Once lives on the Population itself.
func (p *Population) columns() {
	p.colOnce.Do(func() {
		p.lats = make([]float64, len(p.Chips))
		p.leaks = make([]float64, len(p.Chips))
		sum := 0.0
		for i := range p.Chips {
			p.lats[i] = p.Chips[i].Meas.LatencyPS
			p.leaks[i] = p.Chips[i].Meas.LeakageW
			sum += p.leaks[i]
		}
		if len(p.Chips) > 0 {
			p.leakAvg = sum / float64(len(p.Chips))
		}
	})
}

// Latencies returns the cache access latency of every chip. The slice
// is computed once and shared across calls: treat it as read-only.
func (p *Population) Latencies() []float64 {
	p.columns()
	return p.lats
}

// Leakages returns the total cache leakage of every chip. The slice is
// computed once and shared across calls: treat it as read-only.
func (p *Population) Leakages() []float64 {
	p.columns()
	return p.leaks
}

// ScatterPoint is one chip of the Figure 8 scatter plot.
type ScatterPoint struct {
	LatencyPS         float64
	NormalizedLeakage float64 // leakage / population average
	Reason            LossReason
}

// Scatter returns the Figure 8 data: latency versus leakage normalised
// to the population average, with each chip's loss classification under
// the given limits.
func (p *Population) Scatter(lim Limits) []ScatterPoint {
	p.columns()
	v := chipVerdicts{reasons: make([]LossReason, len(p.Chips))}
	verdicts(p.Chips, lim, nil, nil, &v)
	pts := make([]ScatterPoint, len(p.Chips))
	for i, c := range p.Chips {
		pts[i] = ScatterPoint{
			LatencyPS:         c.Meas.LatencyPS,
			NormalizedLeakage: p.leaks[i] / p.leakAvg,
			Reason:            v.reasons[i],
		}
	}
	return pts
}
