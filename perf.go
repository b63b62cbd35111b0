package yieldcache

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"yieldcache/internal/core"
	"yieldcache/internal/cpu"
	"yieldcache/internal/obs"
	"yieldcache/internal/report"
	"yieldcache/internal/stats"
	"yieldcache/internal/workload"
)

// PerfConfig parameterises the CPI evaluation.
type PerfConfig struct {
	// Instructions per benchmark run (default 300k; the paper runs 100M
	// on SimpleScalar — the synthetic traces converge much faster).
	Instructions int
	// Seed drives the trace generators.
	Seed int64
}

// PerfEvaluator prices cache configurations in CPI over the SPEC2000
// suite. Identical configurations are evaluated once and cached; a
// per-key sync.Once makes that "once" hold under concurrency.
type PerfEvaluator struct {
	cfg PerfConfig

	mu       sync.Mutex
	suites   map[string]*suiteEntry // config key -> its suite evaluation
	computes atomic.Int64           // suite evaluations actually run (tests)
	names    []string
}

// suiteEntry is one configuration's suite evaluation; once makes the
// first caller compute it and concurrent callers wait for that result.
type suiteEntry struct {
	once sync.Once
	cpis []float64
}

// NewPerfEvaluator returns an evaluator over the full 24-benchmark
// suite.
func NewPerfEvaluator(cfg PerfConfig) *PerfEvaluator {
	if cfg.Instructions == 0 {
		cfg.Instructions = 300_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &PerfEvaluator{
		cfg:    cfg,
		suites: make(map[string]*suiteEntry),
		names:  workload.Names(),
	}
}

// Benchmarks returns the benchmark names in evaluation order.
func (e *PerfEvaluator) Benchmarks() []string { return e.names }

// configKey encodes a cache configuration unambiguously: each field is
// separated by a delimiter that cannot appear inside a number, so no
// two distinct (wayCycles, hRegion, predicted) triples share a key.
// (fmt.Sprint's space-joined form left field boundaries ambiguous.)
func configKey(wayCycles []int, hRegion, predicted int) string {
	var b strings.Builder
	for i, c := range wayCycles {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(hRegion))
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(predicted))
	return b.String()
}

// suiteCPI returns the per-benchmark CPI of the given L1D configuration,
// evaluating the whole suite in parallel on first use. Concurrent first
// calls for one key coalesce on its entry's Once: one caller computes,
// the others wait for its result. Every call but the computing one
// counts as a cache hit.
func (e *PerfEvaluator) suiteCPI(wayCycles []int, hRegion, predicted int) []float64 {
	key := configKey(wayCycles, hRegion, predicted)
	e.mu.Lock()
	ent, ok := e.suites[key]
	if !ok {
		ent = &suiteEntry{}
		e.suites[key] = ent
	}
	e.mu.Unlock()
	hit := true
	ent.once.Do(func() {
		hit = false
		ent.cpis = e.runSuite(key, wayCycles, hRegion, predicted)
	})
	if hit {
		obs.C("perf_config_cache_hits_total").Inc()
	}
	return ent.cpis
}

// runSuite evaluates every benchmark of the suite under one L1D
// configuration, spread over GOMAXPROCS workers.
func (e *PerfEvaluator) runSuite(key string, wayCycles []int, hRegion, predicted int) []float64 {
	obs.C("perf_config_cache_misses_total").Inc()
	e.computes.Add(1)

	sp := obs.StartSpan("suite_cpi " + key)
	defer sp.End()
	cpiHist := obs.H("perf_benchmark_cpi", obs.LinearBuckets(0.5, 0.25, 14))

	suite := workload.SPEC2000()
	cpis := make([]float64, len(suite))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			ws := sp.Worker("cpi_runs", start)
			for i := start; i < len(suite); i += workers {
				cfg := cpu.DefaultConfig().WithL1D(wayCycles, hRegion, predicted)
				gen := workload.NewGenerator(suite[i], e.cfg.Seed)
				cpis[i] = cpu.Run(gen, e.cfg.Instructions, cfg).CPI
				cpiHist.Observe(cpis[i])
			}
			ws.End()
		}(w)
	}
	wg.Wait()
	return cpis
}

// baselineCPI is the unmodified 4-cycle 4-way cache.
func (e *PerfEvaluator) baselineCPI() []float64 {
	return e.suiteCPI(nil, -1, 0)
}

// Degradations returns the per-benchmark CPI increase (percent) of a
// cache configuration relative to the unmodified cache.
func (e *PerfEvaluator) Degradations(cfg CacheConfig, predicted int) []float64 {
	way := cfg.WayCycles
	if len(way) == 0 {
		way = nil
	}
	base := e.baselineCPI()
	cur := e.suiteCPI(way, cfg.HRegionOff, predicted)
	out := make([]float64, len(base))
	for i := range base {
		out[i] = (cur[i]/base[i] - 1) * 100
	}
	return out
}

// AverageDegradation returns the suite-average CPI increase (percent).
func (e *PerfEvaluator) AverageDegradation(cfg CacheConfig, predicted int) float64 {
	return stats.Mean(e.Degradations(cfg, predicted))
}

// Table6Row is one row of Table 6: a way-latency configuration, how many
// saved chips exhibit it, and each scheme's CPI cost for it (NaN-free:
// Applicable reports N/A).
type Table6Row struct {
	Key            core.ConfigKey
	LeakageLimited bool
	Chips          int
	YAPD           float64
	YAPDOK         bool
	VACA           float64
	VACAOK         bool
	Hybrid         float64
	HybridOK       bool
}

// Table6 combines the yield study's saved-chip configurations with the
// CPI evaluator, reproducing Table 6 including the weighted-sum bottom
// row.
type Table6 struct {
	Rows []Table6Row
	// Weighted sums over saved chips, percent CPI increase.
	YAPDSum, VACASum, HybridSum float64
}

// Table6 evaluates the performance cost of every saved configuration.
// Rows reuse scheme-effective configurations heavily (every YAPD row is
// the same 3-way cache, the VACA rows collapse to a handful of
// way-cycle vectors), so the distinct set is deduplicated and evaluated
// in parallel up front; the row loop then reads cache hits.
func (s *Study) Table6(e *PerfEvaluator) Table6 {
	sp := obs.StartSpan("table6_cpi")
	defer sp.End()
	rows := s.SavedConfigurations()
	out := Table6{}

	distinct := map[string]CacheConfig{}
	for _, r := range rows {
		table6Row(r, func(cfg CacheConfig) float64 {
			distinct[configKey(cfg.WayCycles, cfg.HRegionOff, 0)] = cfg
			return 0
		})
	}
	var wg sync.WaitGroup
	for _, cfg := range distinct {
		wg.Add(1)
		go func(cfg CacheConfig) {
			defer wg.Done()
			// Warms the config's suite CPI (and, via singleflight, the
			// shared baseline) into the evaluator cache.
			e.Degradations(cfg, 0)
		}(cfg)
	}
	wg.Wait()

	for _, r := range rows {
		out.Rows = append(out.Rows, table6Row(r, func(cfg CacheConfig) float64 {
			return e.AverageDegradation(cfg, 0)
		}))
	}

	var yw, yv, vw, vv, hw, hv float64
	for _, r := range out.Rows {
		if r.YAPDOK {
			yw += float64(r.Chips)
			yv += float64(r.Chips) * r.YAPD
		}
		if r.VACAOK {
			vw += float64(r.Chips)
			vv += float64(r.Chips) * r.VACA
		}
		if r.HybridOK {
			hw += float64(r.Chips)
			hv += float64(r.Chips) * r.Hybrid
		}
	}
	if yw > 0 {
		out.YAPDSum = yv / yw
	}
	if vw > 0 {
		out.VACASum = vv / vw
	}
	if hw > 0 {
		out.HybridSum = hv / hw
	}
	return out
}

// table6Row decides which schemes apply to saved configuration r and
// the configuration each runs at, taking each scheme's degradation from
// deg.
func table6Row(r SavedConfig, deg func(CacheConfig) float64) Table6Row {
	row := Table6Row{Key: r.Key, LeakageLimited: r.LeakageLimited, Chips: r.Chips}
	threeWay := CacheConfig{WayCycles: []int{0, 4, 4, 4}, HRegionOff: -1}

	// YAPD: applicable when at most one way is slow (it gets turned
	// off) or the chip is leakage-limited; result is always a 3-way
	// 4-cycle cache.
	if r.Key.N5+r.Key.N6 <= 1 {
		row.YAPD, row.YAPDOK = deg(threeWay), true
	}

	// VACA: applicable when nothing needs more than 5 cycles and the
	// chip is not leakage-limited; all ways stay on.
	if r.Key.N6 == 0 && !r.LeakageLimited {
		row.VACA, row.VACAOK = deg(vacaConfig(r.Key.N5, 4)), true
	}

	// Hybrid: keeps ways on when possible (VACA behaviour), turns off
	// a single 6-cycle way, or the leakiest way on leakage limits.
	switch {
	case r.LeakageLimited && r.Key.N5 == 0 && r.Key.N6 == 0:
		row.Hybrid, row.HybridOK = deg(threeWay), true
	case row.VACAOK:
		row.Hybrid, row.HybridOK = row.VACA, true
	case r.Key.N6 == 1:
		row.Hybrid, row.HybridOK = deg(vacaConfig(r.Key.N5, 3)), true
	}
	return row
}

// vacaConfig builds a configuration with `ways` enabled ways, of which
// n5 run at 5 cycles and the rest at 4 (remaining ways disabled).
func vacaConfig(n5, ways int) CacheConfig {
	cfg := CacheConfig{WayCycles: make([]int, 4), HRegionOff: -1}
	w := 0
	for i := 0; i < n5 && w < ways; i++ {
		cfg.WayCycles[w] = 5
		w++
	}
	for w < ways {
		cfg.WayCycles[w] = 4
		w++
	}
	return cfg
}

// RenderTable6 renders the Table 6 layout.
func RenderTable6(t6 Table6) string {
	t := report.NewTable("Table 6: CPI degradation of saved cache configurations",
		"4cyc", "5cyc", "6+cyc", "Limited by", "Chips", "YAPD[%]", "VACA[%]", "Hybrid[%]")
	fmtCol := func(v float64, ok bool) string {
		if !ok {
			return "N/A"
		}
		return fmt.Sprintf("%.2f", v)
	}
	for _, r := range t6.Rows {
		lim := "delay"
		if r.LeakageLimited {
			lim = "leakage"
		}
		t.AddRow(r.Key.N4, r.Key.N5, r.Key.N6, lim, r.Chips,
			fmtCol(r.YAPD, r.YAPDOK), fmtCol(r.VACA, r.VACAOK), fmtCol(r.Hybrid, r.HybridOK))
	}
	t.AddRow("", "", "", "Weighted Sum", "",
		fmt.Sprintf("%.2f", t6.YAPDSum), fmt.Sprintf("%.2f", t6.VACASum), fmt.Sprintf("%.2f", t6.HybridSum))
	return t.String()
}

// FigureSeries is a per-benchmark CPI-increase series (Figures 9/10).
type FigureSeries struct {
	Title      string
	Benchmarks []string
	Series     map[string][]float64 // scheme name -> per-benchmark %
}

// Figure9 returns the per-benchmark CPI increase for configuration
// 3-1-0 under YAPD (way off) and VACA (5-cycle way kept on; the Hybrid
// behaves identically here, Section 5.2).
func (e *PerfEvaluator) Figure9() FigureSeries {
	return FigureSeries{
		Title:      "Figure 9: CPI increase, cache configuration 3-1-0",
		Benchmarks: e.Benchmarks(),
		Series: map[string][]float64{
			"YAPD": e.Degradations(CacheConfig{WayCycles: []int{0, 4, 4, 4}, HRegionOff: -1}, 0),
			"VACA": e.Degradations(CacheConfig{WayCycles: []int{5, 4, 4, 4}, HRegionOff: -1}, 0),
		},
	}
}

// Figure10 returns the per-benchmark CPI increase for configuration
// 2-2-0 under VACA (YAPD cannot save it).
func (e *PerfEvaluator) Figure10() FigureSeries {
	return FigureSeries{
		Title:      "Figure 10: CPI increase, cache configuration 2-2-0",
		Benchmarks: e.Benchmarks(),
		Series: map[string][]float64{
			"VACA": e.Degradations(CacheConfig{WayCycles: []int{5, 5, 4, 4}, HRegionOff: -1}, 0),
		},
	}
}

// NaiveBinning returns the Section 4.5 numbers: the suite-average CPI
// increase when all loads take one and two extra cycles (the scheduler
// expecting the slower latency, so no bypass buffers are involved).
func (e *PerfEvaluator) NaiveBinning() (plusOne, plusTwo float64) {
	plusOne = e.AverageDegradation(CacheConfig{WayCycles: []int{5, 5, 5, 5}, HRegionOff: -1}, 5)
	plusTwo = e.AverageDegradation(CacheConfig{WayCycles: []int{6, 6, 6, 6}, HRegionOff: -1}, 6)
	return
}

// RenderFigure renders a FigureSeries as labelled text bars.
func RenderFigure(f FigureSeries, width int) string {
	out := f.Title + "\n"
	schemes := make([]string, 0, len(f.Series))
	for name := range f.Series {
		schemes = append(schemes, name)
	}
	sort.Strings(schemes)
	maxV := 0.0
	for _, vs := range f.Series {
		for _, v := range vs {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	for _, name := range schemes {
		out += report.Series(name, f.Benchmarks, f.Series[name], maxV, width)
	}
	return out
}
