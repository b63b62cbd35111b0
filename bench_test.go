package yieldcache

// One benchmark per table and figure of the paper's evaluation section,
// plus ablation benches for the design choices called out in DESIGN.md.
// Each benchmark regenerates its experiment's data; run with
//
//	go test -bench=. -benchmem
//
// The shared study/evaluator are built once (paper-scale population,
// reduced instruction counts so a full -bench=. pass stays minutes, not
// hours) and the per-iteration work is the experiment's analysis step.

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"yieldcache/internal/circuit"
	"yieldcache/internal/core"
	"yieldcache/internal/cpu"
	"yieldcache/internal/sram"
	"yieldcache/internal/variation"
	"yieldcache/internal/workload"
)

var benchState struct {
	once  sync.Once
	study *Study
	perf  *PerfEvaluator
}

// benchBuild is core.Build on a background context; it fails the
// benchmark on error.
func benchBuild(b *testing.B, cfg core.PopulationConfig) core.BuildResult {
	res, err := core.Build(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func benchSetup(b *testing.B) (*Study, *PerfEvaluator) {
	b.Helper()
	benchState.once.Do(func() {
		benchState.study = NewStudy(StudyConfig{Chips: 2000, Seed: 2006})
		benchState.perf = NewPerfEvaluator(PerfConfig{Instructions: 150_000})
	})
	return benchState.study, benchState.perf
}

func BenchmarkTable2(b *testing.B) {
	s, _ := benchSetup(b)
	var bd LossBreakdown
	for i := 0; i < b.N; i++ {
		bd = s.Table2()
	}
	b.ReportMetric(float64(bd.BaseTotal), "base-losses")
	b.ReportMetric(float64(bd.Schemes[0].Total), "YAPD-losses")
	b.ReportMetric(float64(bd.Schemes[1].Total), "VACA-losses")
	b.ReportMetric(float64(bd.Schemes[2].Total), "Hybrid-losses")
	b.ReportMetric(bd.Yield(2)*100, "Hybrid-yield-%")
}

func BenchmarkTable3(b *testing.B) {
	s, _ := benchSetup(b)
	var bd LossBreakdown
	for i := 0; i < b.N; i++ {
		bd = s.Table3()
	}
	b.ReportMetric(float64(bd.BaseTotal), "base-losses")
	b.ReportMetric(float64(bd.Schemes[0].Total), "HYAPD-losses")
	b.ReportMetric(float64(bd.Schemes[2].Total), "HybridH-losses")
}

func BenchmarkTable4(b *testing.B) {
	s, _ := benchSetup(b)
	var rows []ConstraintTotals
	for i := 0; i < b.N; i++ {
		rows = s.Table4()
	}
	b.ReportMetric(float64(rows[0].Base), "relaxed-base")
	b.ReportMetric(float64(rows[1].Base), "strict-base")
	b.ReportMetric(float64(rows[0].Schemes[2].Total), "relaxed-hybrid")
	b.ReportMetric(float64(rows[1].Schemes[2].Total), "strict-hybrid")
}

func BenchmarkTable5(b *testing.B) {
	s, _ := benchSetup(b)
	var rows []ConstraintTotals
	for i := 0; i < b.N; i++ {
		rows = s.Table5()
	}
	b.ReportMetric(float64(rows[0].Base), "relaxed-base")
	b.ReportMetric(float64(rows[1].Base), "strict-base")
}

func BenchmarkTable6(b *testing.B) {
	s, e := benchSetup(b)
	var t6 Table6
	for i := 0; i < b.N; i++ {
		t6 = s.Table6(e)
	}
	b.ReportMetric(t6.YAPDSum, "YAPD-wsum-%")
	b.ReportMetric(t6.VACASum, "VACA-wsum-%")
	b.ReportMetric(t6.HybridSum, "Hybrid-wsum-%")
}

func BenchmarkFigure8(b *testing.B) {
	s, _ := benchSetup(b)
	var pts []ScatterPoint
	for i := 0; i < b.N; i++ {
		pts = s.Figure8()
	}
	b.ReportMetric(float64(len(pts)), "points")
}

func BenchmarkFigure9(b *testing.B) {
	_, e := benchSetup(b)
	var f FigureSeries
	for i := 0; i < b.N; i++ {
		f = e.Figure9()
	}
	yapd, vaca := 0.0, 0.0
	for i := range f.Series["YAPD"] {
		yapd += f.Series["YAPD"][i]
		vaca += f.Series["VACA"][i]
	}
	b.ReportMetric(yapd/24, "YAPD-avg-%")
	b.ReportMetric(vaca/24, "VACA-avg-%")
}

func BenchmarkFigure10(b *testing.B) {
	_, e := benchSetup(b)
	var f FigureSeries
	for i := 0; i < b.N; i++ {
		f = e.Figure10()
	}
	sum := 0.0
	for _, v := range f.Series["VACA"] {
		sum += v
	}
	b.ReportMetric(sum/24, "VACA-avg-%")
}

func BenchmarkNaiveBinning(b *testing.B) {
	_, e := benchSetup(b)
	var p1, p2 float64
	for i := 0; i < b.N; i++ {
		p1, p2 = e.NaiveBinning()
	}
	b.ReportMetric(p1, "plus1-%")
	b.ReportMetric(p2, "plus2-%")
}

// BenchmarkHYAPDLatency verifies the Section 4.2 claim in circuit form:
// the H-YAPD decoder organisation costs 2.5% average access latency.
func BenchmarkHYAPDLatency(b *testing.B) {
	s, _ := benchSetup(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		var reg, hor float64
		for j := range s.Regular.Chips {
			reg += s.Regular.Chips[j].Meas.LatencyPS
			hor += s.Horizontal.Chips[j].Meas.LatencyPS
		}
		ratio = hor / reg
	}
	b.ReportMetric((ratio-1)*100, "latency-overhead-%")
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationCorrelation sweeps the inter-way correlation factors:
// weaker spatial correlation (larger factors) moves loss mass from
// multi-way violations to single-way ones, which is the regime where
// plain YAPD already suffices — the argument for H-YAPD rests on strong
// correlation.
func BenchmarkAblationCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, scale := range []float64{0.5, 1.0, 2.0} {
			f := variation.PaperFactors()
			f.VerticalWay *= scale
			f.HorizWay *= scale
			f.DiagWay *= scale
			if f.DiagWay > 1 {
				f.DiagWay = 1
			}
			pop := benchBuild(b, core.PopulationConfig{N: 500, Seed: 2006, Fact: &f}).Regular
			lim := core.DeriveLimits(pop, core.Nominal())
			bd := core.BreakdownLosses(pop, lim, core.YAPD{})
			multi := bd.Base[core.LossDelay2] + bd.Base[core.LossDelay3] + bd.Base[core.LossDelay4]
			b.ReportMetric(float64(multi), "multiway@"+scaleName(scale))
		}
	}
}

func scaleName(s float64) string {
	switch s {
	case 0.5:
		return "0.5x"
	case 1.0:
		return "1x"
	default:
		return "2x"
	}
}

// BenchmarkAblationBufferDepth prices the paper's rejected extension:
// 2-entry load-bypass buffers (supporting 6-cycle ways) against the
// single-entry design, on a cache with one 6-cycle way.
func BenchmarkAblationBufferDepth(b *testing.B) {
	p, _ := workload.ByName("gcc")
	for i := 0; i < b.N; i++ {
		cfg1 := cpu.DefaultConfig().WithL1D([]int{6, 4, 4, 4}, -1, 4)
		cfg2 := cfg1
		cfg2.BypassEntries = 2
		base := cpu.Run(workload.NewGenerator(p, 1), 150_000, cpu.DefaultConfig())
		r1 := cpu.Run(workload.NewGenerator(p, 1), 150_000, cfg1)
		r2 := cpu.Run(workload.NewGenerator(p, 1), 150_000, cfg2)
		b.ReportMetric((r1.CPI/base.CPI-1)*100, "depth1-dCPI-%")
		b.ReportMetric((r2.CPI/base.CPI-1)*100, "depth2-dCPI-%")
	}
}

// BenchmarkAblationPopulation sweeps the Monte Carlo population size:
// the yield estimate converges well before the paper's 2000 chips.
func BenchmarkAblationPopulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{250, 1000, 2000} {
			pop := benchBuild(b, core.PopulationConfig{N: n, Seed: 2006}).Regular
			lim := core.DeriveLimits(pop, core.Nominal())
			bd := core.BreakdownLosses(pop, lim, core.Hybrid{})
			b.ReportMetric(bd.Yield(0)*100, "hybrid-yield@"+popName(n))
		}
	}
}

func popName(n int) string {
	switch n {
	case 250:
		return "250"
	case 1000:
		return "1000"
	default:
		return "2000"
	}
}

// BenchmarkAblationPrefetch asks whether a next-line prefetcher (not in
// the paper's machine) changes the picture: it cuts the stream-miss
// baseline, which *raises* the relative cost of VACA's slow hits — the
// schemes matter more, not less, on a prefetching core.
func BenchmarkAblationPrefetch(b *testing.B) {
	p, _ := workload.ByName("swim")
	for i := 0; i < b.N; i++ {
		plain := cpu.DefaultConfig()
		pf := plain
		pf.NextLinePrefetch = true
		pfSlow := pf.WithL1D([]int{5, 4, 4, 4}, -1, 4)
		slow := plain.WithL1D([]int{5, 4, 4, 4}, -1, 4)

		base := cpu.Run(workload.NewGenerator(p, 1), 150_000, plain)
		baseP := cpu.Run(workload.NewGenerator(p, 1), 150_000, pf)
		d := cpu.Run(workload.NewGenerator(p, 1), 150_000, slow)
		dP := cpu.Run(workload.NewGenerator(p, 1), 150_000, pfSlow)
		b.ReportMetric((d.CPI/base.CPI-1)*100, "vaca-dCPI-noPF-%")
		b.ReportMetric((dP.CPI/baseP.CPI-1)*100, "vaca-dCPI-PF-%")
		b.ReportMetric(base.CPI/baseP.CPI, "PF-speedup")
	}
}

// BenchmarkAblationThreshold sweeps the 5-cycle binning threshold: the
// paper bins a way at 5 cycles when its latency fits 5/4 of the delay
// limit. A pessimistic (tighter) threshold pushes ways into the
// 6+-cycle bin, growing VACA's losses.
func BenchmarkAblationThreshold(b *testing.B) {
	s, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		for _, scale := range []float64{0.95, 1.0, 1.05} {
			lim := s.Limits
			lim.DelayPS *= scale
			bd := core.BreakdownLosses(s.Regular, lim, core.VACA{})
			b.ReportMetric(float64(bd.Schemes[0].Total), "VACA-losses@"+thName(scale))
		}
	}
}

func thName(s float64) string {
	switch {
	case s < 1:
		return "tight"
	case s > 1:
		return "loose"
	default:
		return "paper"
	}
}

// BenchmarkAblationAdaptiveHybrid compares the fixed Hybrid against the
// adaptive policy (Section 4.4's discussion) on the yield side: both
// save the same chips, so the difference is purely in shipped
// configurations — reported as the fraction of saved chips whose
// configuration changed for a compute-bound workload.
func BenchmarkAblationAdaptiveHybrid(b *testing.B) {
	s, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		changed, saved := 0, 0
		a := core.AdaptiveHybrid{MemoryIntensity: 0.1}
		for _, chip := range s.Regular.Chips {
			if core.Classify(chip.Meas, s.Limits) == core.LossNone {
				continue
			}
			h := core.Hybrid{}.Apply(chip.Meas, s.Limits)
			if !h.Saved {
				continue
			}
			saved++
			if g := a.Apply(chip.Meas, s.Limits); g.DisabledWay != h.DisabledWay {
				changed++
			}
		}
		b.ReportMetric(float64(saved), "saved")
		b.ReportMetric(float64(changed), "reconfigured")
	}
}

// BenchmarkPopulationBuildPair measures the Monte Carlo throughput
// itself (chips evaluated per second drives every other experiment):
// each iteration builds the regular organisation and derives H-YAPD
// from it, the 2N measurements a study holds.
func BenchmarkPopulationBuildPair(b *testing.B) {
	const n = 200
	for i := 0; i < b.N; i++ {
		core.DeriveHorizontal(benchBuild(b, core.PopulationConfig{N: n, Seed: int64(i + 1)}).Regular)
	}
	b.ReportMetric(float64(2*n*b.N)/b.Elapsed().Seconds(), "chips/s")
}

// BenchmarkEstimateArmed is the builder with streaming yield
// estimation armed at a server-realistic snapshot interval. The
// estimator must stay off the per-chip hot path: the streaming case
// first pins the alloc budget (arming costs at most two allocations per
// build — the estimator and its frontier's batch marks — and nothing
// per chip) and then reports the throughput with snapshots
// publishing. The precision case is a study-durable-shaped build (20000
// chips, ±1% at 95%): it reports the chips it keeps and the megabytes
// it allocates per build, which track the stop prefix, not the 20000.
func BenchmarkEstimateArmed(b *testing.B) {
	b.Run("streaming", func(b *testing.B) {
		const n = 200
		plainCfg := core.PopulationConfig{N: n, Seed: 2006}
		published := 0
		est := &core.EstimateConfig{
			Interval: 2 * time.Millisecond,
			Sink:     func(*core.YieldEstimate) { published++ },
		}
		armedCfg := plainCfg
		armedCfg.Estimate = est
		// The budget is counted on one P with GC off, as the core alloc
		// tests count theirs: a collection may empty the kernel's buffer
		// pool, and a worker on a P whose pool slot is empty allocates a
		// fresh buffer, which is noise, not a cost of arming.
		gc, procs := debug.SetGCPercent(-1), runtime.GOMAXPROCS(1)
		plain := testing.AllocsPerRun(10, func() { benchBuild(b, plainCfg) })
		armed := testing.AllocsPerRun(10, func() { benchBuild(b, armedCfg) })
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
		if extra := armed - plain; extra > 2 {
			b.Fatalf("arming estimation costs %.0f extra allocs per build, budget is 2", extra)
		}
		published = 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			armedCfg.Seed = int64(i + 1)
			benchBuild(b, armedCfg)
		}
		b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "chips/s")
		b.ReportMetric(float64(published)/float64(b.N), "snapshots/op")
	})
	b.Run("precision", func(b *testing.B) {
		cfg := core.PopulationConfig{N: 20000, Estimate: &core.EstimateConfig{
			Constraints:   core.Nominal(),
			TargetCIWidth: 0.01,
		}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		chips := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.Seed = int64(i + 1)
			chips += benchBuild(b, cfg).Estimate.Chips
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(chips)/float64(b.N), "chips/op")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(b.N), "MB/op")
	})
}

// BenchmarkMeasure is the steady-state single-chip kernel: one warm
// evaluator, one reused destination. The interesting numbers are
// allocs/op (must be 0) and ns/op.
func BenchmarkMeasure(b *testing.B) {
	model := sram.NewModel(circuit.PTM45(), false)
	sampler := variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), 2006)
	ev := model.NewEvaluator(sampler.NewScratch())
	var cm sram.CacheMeasurement
	warm := ev.Scratch().Chip(0)
	ev.Measure(&warm, &cm) // sizes cm and the kernel scratch outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip := ev.Scratch().Chip(i)
		ev.Measure(&chip, &cm)
	}
}

// BenchmarkCPUSim measures the cycle-model throughput on one benchmark.
func BenchmarkCPUSim(b *testing.B) {
	p, _ := workload.ByName("gzip")
	cfg := cpu.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Run(workload.NewGenerator(p, 1), 100_000, cfg)
	}
	b.ReportMetric(100_000, "instructions/op")
}

// BenchmarkCPUSimDetailed measures the event-driven core's throughput
// and reports its agreement with the fast model on the same run.
func BenchmarkCPUSimDetailed(b *testing.B) {
	p, _ := workload.ByName("gzip")
	cfg := cpu.DefaultConfig()
	fast := cpu.Run(workload.NewGenerator(p, 1), 100_000, cfg)
	b.ResetTimer()
	var det cpu.Result
	for i := 0; i < b.N; i++ {
		det = cpu.RunDetailed(workload.NewGenerator(p, 1), 100_000, cfg)
	}
	b.ReportMetric(det.CPI/fast.CPI, "detailed/fast-CPI")
}

// sweepBenchSpec is the grid shared by the delta-reuse and
// full-rebuild sweep benchmarks: a 3×2 vdd × vt_nominal technology
// grid, 200 chips per config. Six configs, one full build, five delta
// builds.
func sweepBenchSpec() SweepSpec {
	return SweepSpec{
		N: 200, Seed: 2006,
		Axes: []TechAxis{
			{Param: "vdd", Values: []float64{1.10, 1.08, 1.05}},
			{Param: "vt_nominal", Values: []float64{0.30, 0.32}},
		},
	}
}

// BenchmarkSweepDelta runs the grid through the sweep planner: the
// base config is built once and every neighbouring technology is a
// delta rebuild over the retained draws. Compare chips/s against
// BenchmarkSweepFullRebuild to see what the reuse buys.
func BenchmarkSweepDelta(b *testing.B) {
	spec := sweepBenchSpec()
	var res *SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = RunSweepCtx(context.Background(), spec, SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	st := res.Stats
	b.ReportMetric(float64(st.Configs*spec.N*b.N)/b.Elapsed().Seconds(), "chips/s")
	b.ReportMetric(float64(st.DeltaBuilds), "delta-builds")
}

// BenchmarkSweepFullRebuild evaluates the same grid the naive way: an
// independent full build per config, no draw reuse. This is
// the wall-clock baseline the sweep service's delta planning is judged
// against.
func BenchmarkSweepFullRebuild(b *testing.B) {
	spec := sweepBenchSpec()
	plan, err := PlanSweep(spec)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, cfg := range plan.Configs {
			tech := cfg.Tech
			benchBuild(b, core.PopulationConfig{
				N: spec.N, Seed: spec.Seed, Tech: &tech, Workers: 1,
			})
		}
	}
	b.ReportMetric(float64(len(plan.Configs)*spec.N*b.N)/b.Elapsed().Seconds(), "chips/s")
}

// layerFixture returns a warm evaluator and a DrawSet already sampled
// with one batch of BatchWidth chips, the state the population builder
// reaches after its first batch.
func layerFixture() (*sram.Evaluator, *sram.DrawSet, []int) {
	model := sram.NewModel(circuit.PTM45(), false)
	sampler := variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), 2006)
	ev := model.NewEvaluator(sampler.NewScratch())
	ids := make([]int, sram.BatchWidth)
	for j := range ids {
		ids[j] = j
	}
	ds := new(sram.DrawSet)
	ev.Sample(ids, ds)
	return ev, ds, ids
}

// reportPerChip reports the benchmark's time per chip in microseconds.
func reportPerChip(b *testing.B, chipsPerOp int) {
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*chipsPerOp), "us/chip")
}

// requireZeroAllocs fails the benchmark unless op allocates nothing.
func requireZeroAllocs(b *testing.B, op func()) {
	if a := testing.AllocsPerRun(3, op); a != 0 {
		b.Fatalf("warm op allocates %.1f times, want 0", a)
	}
}

// BenchmarkSample is the variation-sampling layer of a build: one
// warm DrawSet refilled with the full variation tree of BatchWidth new
// chips per op. It fails unless an op allocates nothing.
func BenchmarkSample(b *testing.B) {
	ev, ds, ids := layerFixture()
	next := func() {
		for j := range ids {
			ids[j] += sram.BatchWidth
		}
		ev.Sample(ids, ds)
	}
	requireZeroAllocs(b, next)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
	reportPerChip(b, sram.BatchWidth)
}

// BenchmarkKernelPair is the kernel layer of a study: both cache
// organisations, the regular one evaluated from one warm DrawSet of
// BatchWidth chips per op and H-YAPD derived from it, the leakage
// aggregates captured as the delta-build path does. It
// fails unless an op allocates nothing.
func BenchmarkKernelPair(b *testing.B) {
	ev, ds, _ := layerFixture()
	g := sram.Paper16KB()
	reg := make([]*sram.CacheMeasurement, sram.BatchWidth)
	hor := make([]*sram.CacheMeasurement, sram.BatchWidth)
	for l := range reg {
		reg[l], hor[l] = new(sram.CacheMeasurement), new(sram.CacheMeasurement)
		sram.Prepare(reg[l], g)
		sram.Prepare(hor[l], g)
	}
	var rec sram.LeakState
	ev.EvalPair(ds, reg, hor, &rec)
	requireZeroAllocs(b, func() { ev.EvalPair(ds, reg, hor, &rec) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvalPair(ds, reg, hor, &rec)
	}
	reportPerChip(b, sram.BatchWidth)
}
