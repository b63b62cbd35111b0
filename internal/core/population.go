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
	// Checkpoint enables periodic build checkpointing and crash resume;
	// nil (the default) adds nothing to the hot loop.
	Checkpoint *CheckpointConfig
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

// BuildResult is one Monte Carlo build: the regular and H-YAPD
// organisations measured from the same variation draws, and the final
// streaming yield estimate.
type BuildResult struct {
	Regular    *Population
	Horizontal *Population
	// Estimate is nil unless PopulationConfig.Estimate armed
	// estimation. When its EarlyStop field is set, both populations are
	// truncated to the fully measured prefix at which the precision
	// target was met, and every chip in them is bit-identical to the
	// same chip of an untruncated build.
	Estimate *YieldEstimate
}

// Build samples every chip's variation tree once and measures both
// cache organisations from the same draws. Chip i is a pure function of
// (Seed, i), so the regular and H-YAPD populations see identical
// process variation — the paper's "we have applied the same process
// variation parameters used in the previous simulations" holds by
// construction. Evaluation is parallelised across cfg.Workers; the
// result is independent of the worker count.
//
// Build returns an error for a negative N or an out-of-range Geom, for
// a Checkpoint.Resume that belongs to another build, and ctx.Err()
// when ctx is cancelled or its deadline passes mid-build.
//
// Workers claim whole sram.BatchWidth-chip batches from one shared
// counter (forEachBatch, the loop every build runs) and evaluate each
// through the structure-of-arrays batch kernel with their own variation
// scratch and measurement evaluator, so the hot loop performs no heap
// allocation: way/bank/path measurement storage comes from flat arrays
// sliced up front and draw/factor columns live in the evaluator. A
// build that can stop early (a precision target) instead wires that
// storage in chipSegment-chip segments as the workers reach them, so it
// pays only for the chips it measures. Cancellation is polled once per
// batch — an atomic flag set by a watcher goroutine, so the hot loop
// never touches the context directly. When ctx carries an obs.Scope
// (the yieldd per-job path), spans land on the scope's tracer instead
// of the global one, worker w on trace lane 2+w, and the scope's
// progress counter advances once per batch at the same poll point, so a
// running job can report live chips-done counts at no extra hot-loop
// cost beyond one atomic add.
func Build(ctx context.Context, cfg PopulationConfig) (BuildResult, error) {
	if err := cfg.fill(); err != nil {
		return BuildResult{}, err
	}
	scope := obs.ScopeFrom(ctx)
	scope.SetProgressTotal(int64(cfg.N))
	sp := obs.StartSpanCtx(ctx, "build_population/pair")
	defer sp.End()

	regModel := newModelWithGeom(*cfg.Tech, false, cfg.Geom)
	horModel := newModelWithGeom(*cfg.Tech, true, cfg.Geom)
	sampler := variation.NewSampler(*cfg.Spec, *cfg.Fact, cfg.Seed)
	geom := regModel.Geom

	// Cancellation: the workers poll one shared atomic per batch instead
	// of selecting on ctx.Done() in the hot loop. Started before the
	// arenas so that their setup loops (millions of slice-header writes
	// for large N) can poll it too.
	cancelled, stopWatch := watchCancel(ctx)
	defer stopWatch()

	stopsEarly := cfg.Estimate != nil && cfg.Estimate.TargetCIWidth > 0
	regChips, horChips, segs := newPairArenas(cfg.N, geom, stopsEarly, cancelled)
	if cancelled.Load() {
		return BuildResult{}, ctx.Err()
	}

	// Resume: seed the arena with a checkpointed prefix. Chip i is a
	// pure function of (Seed, i), so measurement restarting at base
	// yields chips bit-identical to an uninterrupted run.
	base := 0
	if cfg.Checkpoint != nil && cfg.Checkpoint.Resume != nil {
		r := cfg.Checkpoint.Resume
		if err := validateResume(r, &cfg, geom); err != nil {
			return BuildResult{}, err
		}
		segs.wire(0, r.Done)
		for i := 0; i < r.Done; i++ {
			copyMeasInto(&regChips[i].Meas, &r.Regular[i].Meas)
			copyMeasInto(&horChips[i].Meas, &r.Horizontal[i].Meas)
		}
		base = r.Done
		scope.AddProgress(int64(base))
		obs.C("core_builds_resumed_total").Inc()
	}

	ckp := newCheckpointer(cfg.Checkpoint, base, &cfg, geom, regChips, horChips)
	est := newEstimator(cfg.Estimate, regChips)
	fr := newFrontier(base, cfg.N, ckp, est)
	forEachBatch(cancelled, sp, fr, base, cfg.N, cfg.Workers, regModel, sampler, func(ev *sram.Evaluator, _, lo, bn int) {
		segs.wire(lo, lo+bn)
		ids, regV, horV := batchIDs(lo, bn), measSlots(regChips, lo, bn), measSlots(horChips, lo, bn)
		ev.MeasurePairBatch(ids[:bn], regV[:bn], horV[:bn])
		scope.AddProgress(int64(bn))
	})
	if err := ctx.Err(); err != nil {
		return BuildResult{}, err
	}

	// Precision-targeted stop: truncate to the prefix at which the
	// stopping rule fired — a consistent prefix of base +
	// k·sram.BatchWidth chips, every one fully measured — so the final
	// population, and every statistic derived from it, is the prefix
	// the decision was made on (final CI half-width <= target by
	// construction). Workers may have measured
	// a few batches past the prefix between the decision and their
	// next poll; those chips are discarded, keeping the result a pure
	// function of the decision prefix rather than of scheduling luck.
	// The truncation happens at the Population literals below rather
	// than by reassigning regChips/horChips — a reassignment after the
	// workers captured the slices would force their headers onto the
	// heap and cost the disabled path an allocation.
	built := cfg.N
	early := false
	if p := est.stopPrefix(); p > 0 {
		built = p
		early = true
		done, _ := scope.Progress()
		scope.SetProgressTotal(done)
	}
	est.finalize(built, early)

	// Both organisations count: a build measures 2×built chips.
	obs.C("core_chips_built_total").Add(int64(2 * built))
	return BuildResult{
		Regular:    &Population{Chips: regChips[:built], Model: regModel, Seed: cfg.Seed},
		Horizontal: &Population{Chips: horChips[:built], Model: horModel, Seed: cfg.Seed},
		Estimate:   est.final(),
	}, nil
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

// States of a segment of a segmentedArenas.
const (
	segUnwired uint32 = iota
	segWiring
	segReady
)

// segmentedArenas wires the regular and H-YAPD chip arenas of a build
// that can stop early, chipSegment chips at a time, the first time a
// batch reaches each segment. A precision build that stops at P chips
// therefore allocates, zeroes and wires measurement storage only for
// the segments below P and the few its workers reached past it.
type segmentedArenas struct {
	reg, hor []Chip
	geom     sram.Geometry
	state    []atomic.Uint32 // per segment: segUnwired, segWiring or segReady
}

// newPairArenas returns the regular and H-YAPD chip arenas of a build.
// A build that cannot stop early gets both wired up front as one
// segment of n, and a nil segs; one that can gets unwired chips and the
// segmentedArenas through which its workers wire them on demand.
func newPairArenas(n int, g sram.Geometry, stopsEarly bool, cancelled *atomic.Bool) (reg, hor []Chip, segs *segmentedArenas) {
	if !stopsEarly {
		return newChipArena(n, g, cancelled), newChipArena(n, g, cancelled), nil
	}
	segs = &segmentedArenas{
		reg:   make([]Chip, n),
		hor:   make([]Chip, n),
		geom:  g,
		state: make([]atomic.Uint32, (n+chipSegment-1)/chipSegment),
	}
	return segs.reg, segs.hor, segs
}

// wire makes sure chips [lo, hi) of both arenas are wired. The caller
// that moves a segment from unwired to wiring wires it, so each segment
// is wired exactly once; a caller that finds it being wired waits until
// it is ready, which orders the wiring before the caller's writes.
// Nil-safe: a build wired up front pays one nil check per batch.
func (a *segmentedArenas) wire(lo, hi int) {
	if a == nil || hi <= lo {
		return
	}
	for s := lo / chipSegment; s <= (hi-1)/chipSegment; s++ {
		st := &a.state[s]
		if st.Load() == segReady {
			continue
		}
		if st.CompareAndSwap(segUnwired, segWiring) {
			l, h := s*chipSegment, min((s+1)*chipSegment, len(a.reg))
			wireChips(a.reg, l, h, a.geom, nil)
			wireChips(a.hor, l, h, a.geom, nil)
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
	pts := make([]ScatterPoint, len(p.Chips))
	for i, c := range p.Chips {
		pts[i] = ScatterPoint{
			LatencyPS:         c.Meas.LatencyPS,
			NormalizedLeakage: p.leaks[i] / p.leakAvg,
			Reason:            Classify(c.Meas, lim),
		}
	}
	return pts
}
