package core

import (
	"sort"

	"yieldcache/internal/sram"
)

// CacheConfig is the configuration a saved chip ships with: the cycle
// count of each way (0 = way powered down) and, for horizontal
// power-down, the disabled region. It is what the CPU simulator prices.
type CacheConfig struct {
	WayCycles  []int // per way; 0 means the way is disabled
	HRegionOff int   // disabled horizontal region, or -1
}

// BaseConfig returns the all-ways-at-4-cycles configuration.
func BaseConfig(ways int) CacheConfig {
	c := CacheConfig{WayCycles: make([]int, ways), HRegionOff: -1}
	for i := range c.WayCycles {
		c.WayCycles[i] = BaseCycles
	}
	return c
}

// EnabledWays returns the number of powered ways. A configuration with a
// disabled horizontal region keeps all ways powered but behaves as one
// fewer way for hit/miss purposes (Section 4.2), which EffectiveAssoc
// reports.
func (c CacheConfig) EnabledWays() int {
	n := 0
	for _, cy := range c.WayCycles {
		if cy > 0 {
			n++
		}
	}
	return n
}

// EffectiveAssoc returns the associativity the program observes.
func (c CacheConfig) EffectiveAssoc() int {
	n := c.EnabledWays()
	if c.HRegionOff >= 0 {
		n--
	}
	return n
}

// Counts returns how many enabled ways need 4, 5 and 6-or-more cycles —
// the N-N-N triples of Table 6.
func (c CacheConfig) Counts() (n4, n5, n6 int) {
	for _, cy := range c.WayCycles {
		switch {
		case cy == 0:
		case cy <= BaseCycles:
			n4++
		case cy == BaseCycles+1:
			n5++
		default:
			n6++
		}
	}
	return
}

// CacheView is the evaluated cache a scheme decides on; it is the sram
// measurement (per-way latency/leakage with per-bank detail).
type CacheView = sram.CacheMeasurement

// Outcome is a scheme's verdict on one chip.
type Outcome struct {
	// Saved reports whether the chip is sellable under the scheme
	// (including chips that pass without intervention).
	Saved bool
	// Passing reports whether the chip met the constraints with no
	// intervention; the schemes have zero performance impact on such
	// chips (Section 5: "the proposed schemes are only activated when a
	// chip does not meet design criteria").
	Passing bool
	Config  CacheConfig
	// DisabledWay / DisabledRegion record the power-down action taken,
	// -1 if none.
	DisabledWay    int
	DisabledRegion int
}

// Scheme is a yield-aware cache architecture: it decides whether a
// failing chip can be saved and at what configuration.
type Scheme interface {
	Name() string
	Apply(m sram.CacheMeasurement, lim Limits) Outcome
}

// helper facts shared by the schemes

func wayCycles(m sram.CacheMeasurement, lim Limits) []int {
	out := make([]int, len(m.Ways))
	for i, w := range m.Ways {
		out[i] = lim.WayCycles(w.LatencyPS)
	}
	return out
}

func passes(m sram.CacheMeasurement, lim Limits) bool {
	return Classify(m, lim) == LossNone
}

func passOutcome(m sram.CacheMeasurement) Outcome {
	return Outcome{
		Saved:          true,
		Passing:        true,
		Config:         BaseConfig(len(m.Ways)),
		DisabledWay:    -1,
		DisabledRegion: -1,
	}
}

func lostOutcome(m sram.CacheMeasurement) Outcome {
	return Outcome{Config: BaseConfig(len(m.Ways)), DisabledWay: -1, DisabledRegion: -1}
}

// Base is the yield-unaware cache: a chip is sellable only if it passes
// both constraints outright.
type Base struct{}

func (Base) Name() string { return "Base" }

func (Base) Apply(m sram.CacheMeasurement, lim Limits) Outcome {
	if passes(m, lim) {
		return passOutcome(m)
	}
	return lostOutcome(m)
}

// YAPD is the Yield-Aware Power-Down of Section 4.1: at most one way may
// be turned off (Gated-Vdd removes both its delay paths and its entire
// leakage, periphery included). The chip is saved if some single-way
// shutdown leaves every remaining way within the delay limit and the
// total leakage within the power limit.
type YAPD struct{}

func (YAPD) Name() string { return "YAPD" }

func (YAPD) Apply(m sram.CacheMeasurement, lim Limits) Outcome {
	if passes(m, lim) {
		return passOutcome(m)
	}
	// Candidate ways, worst first: delay violators by latency, then by
	// leakage — matching testing practice (disable the failing way; on a
	// leakage failure, the leakiest way).
	order := make([]int, len(m.Ways))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := m.Ways[order[a]], m.Ways[order[b]]
		va := wa.LatencyPS > lim.DelayPS
		vb := wb.LatencyPS > lim.DelayPS
		if va != vb {
			return va
		}
		if va {
			return wa.LatencyPS > wb.LatencyPS
		}
		return wa.LeakageW > wb.LeakageW
	})
	for _, i := range order {
		if yapdValid(m, lim, i) {
			cfg := BaseConfig(len(m.Ways))
			cfg.WayCycles[i] = 0
			return Outcome{Saved: true, Config: cfg, DisabledWay: i, DisabledRegion: -1}
		}
	}
	return lostOutcome(m)
}

func yapdValid(m sram.CacheMeasurement, lim Limits, off int) bool {
	leak := m.LeakageW - m.Ways[off].LeakageW
	if leak > lim.LeakageW {
		return false
	}
	for i, w := range m.Ways {
		if i != off && w.LatencyPS > lim.DelayPS {
			return false
		}
	}
	return true
}

// HYAPD is the horizontal power-down of Section 4.2: at most one
// horizontal region (the same physical row range of every way) may be
// turned off. Delay-wise this removes each way's paths through that
// region; leakage-wise it removes only the region's cell arrays (the
// periphery cannot be fully gated). The program-visible associativity
// drops to ways-1 thanks to the modified post-decoders, so the hit/miss
// behaviour matches YAPD exactly.
type HYAPD struct{}

func (HYAPD) Name() string { return "H-YAPD" }

func (HYAPD) Apply(m sram.CacheMeasurement, lim Limits) Outcome {
	if passes(m, lim) {
		return passOutcome(m)
	}
	regions := len(m.Ways[0].Banks)
	best, bestLeak := -1, 0.0
	for r := 0; r < regions; r++ {
		leak, ok := hyapdCheck(m, lim, r)
		if ok && (best < 0 || leak < bestLeak) {
			best, bestLeak = r, leak
		}
	}
	if best < 0 {
		return lostOutcome(m)
	}
	cfg := BaseConfig(len(m.Ways))
	cfg.HRegionOff = best
	return Outcome{Saved: true, Config: cfg, DisabledWay: -1, DisabledRegion: best}
}

// hyapdCheck returns the chip's leakage with region r off and whether
// the chip then meets both constraints.
func hyapdCheck(m sram.CacheMeasurement, lim Limits, r int) (float64, bool) {
	leak := 0.0
	for _, w := range m.Ways {
		leak += w.LeakageWithoutBank(r)
		if w.LatencyWithoutBank(r) > lim.DelayPS {
			return leak, false
		}
	}
	return leak, leak <= lim.LeakageW
}

// VACA is the variable-latency cache architecture of Section 4.3: slow
// ways stay enabled and complete in 5 cycles, backed by single-entry
// load-bypass buffers at the functional-unit inputs. Ways needing 6 or
// more cycles cannot be covered, and VACA has no means of reducing
// leakage.
type VACA struct{}

func (VACA) Name() string { return "VACA" }

func (VACA) Apply(m sram.CacheMeasurement, lim Limits) Outcome {
	if passes(m, lim) {
		return passOutcome(m)
	}
	if m.LeakageW > lim.LeakageW {
		return lostOutcome(m)
	}
	cfg := CacheConfig{WayCycles: wayCycles(m, lim), HRegionOff: -1}
	for _, cy := range cfg.WayCycles {
		if cy > MaxVACACycles {
			return lostOutcome(m)
		}
	}
	return Outcome{Saved: true, Config: cfg, DisabledWay: -1, DisabledRegion: -1}
}

// Hybrid combines VACA with a power-down mechanism (Section 4.4): ways
// are kept enabled as long as possible (5-cycle ways run under VACA);
// a way is turned off only when it needs more than 5 cycles or when the
// leakage constraint is violated, and at most one way may be turned off.
// Horizontal selects the H-YAPD region shutdown instead of a vertical
// way shutdown.
type Hybrid struct {
	Horizontal bool
}

func (h Hybrid) Name() string {
	if h.Horizontal {
		return "Hybrid(H)"
	}
	return "Hybrid"
}

func (h Hybrid) Apply(m sram.CacheMeasurement, lim Limits) Outcome {
	if passes(m, lim) {
		return passOutcome(m)
	}
	// Keep everything on if the chip is valid as a pure VACA.
	cycles := wayCycles(m, lim)
	if m.LeakageW <= lim.LeakageW && maxInt(cycles) <= MaxVACACycles {
		return Outcome{
			Saved:          true,
			Config:         CacheConfig{WayCycles: cycles, HRegionOff: -1},
			DisabledWay:    -1,
			DisabledRegion: -1,
		}
	}
	if h.Horizontal {
		return h.applyHorizontal(m, lim)
	}
	// Try turning off one way: prefer the slowest unfixable way, then the
	// leakiest.
	order := make([]int, len(m.Ways))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := m.Ways[order[a]], m.Ways[order[b]]
		va := lim.WayCycles(wa.LatencyPS) > MaxVACACycles
		vb := lim.WayCycles(wb.LatencyPS) > MaxVACACycles
		if va != vb {
			return va
		}
		if va {
			return wa.LatencyPS > wb.LatencyPS
		}
		return wa.LeakageW > wb.LeakageW
	})
	for _, off := range order {
		if m.LeakageW-m.Ways[off].LeakageW > lim.LeakageW {
			continue
		}
		ok := true
		cfg := CacheConfig{WayCycles: make([]int, len(m.Ways)), HRegionOff: -1}
		for i := range m.Ways {
			if i == off {
				continue
			}
			cfg.WayCycles[i] = cycles[i]
			if cycles[i] > MaxVACACycles {
				ok = false
				break
			}
		}
		if ok {
			return Outcome{Saved: true, Config: cfg, DisabledWay: off, DisabledRegion: -1}
		}
	}
	return lostOutcome(m)
}

func (h Hybrid) applyHorizontal(m sram.CacheMeasurement, lim Limits) Outcome {
	regions := len(m.Ways[0].Banks)
	best, bestLeak := -1, 0.0
	var bestCycles []int
	for r := 0; r < regions; r++ {
		leak := 0.0
		cyc := make([]int, len(m.Ways))
		ok := true
		for i, w := range m.Ways {
			leak += w.LeakageWithoutBank(r)
			cyc[i] = lim.WayCycles(w.LatencyWithoutBank(r))
			if cyc[i] > MaxVACACycles {
				ok = false
				break
			}
		}
		if ok && leak <= lim.LeakageW && (best < 0 || leak < bestLeak) {
			best, bestLeak, bestCycles = r, leak, cyc
		}
	}
	if best < 0 {
		return lostOutcome(m)
	}
	return Outcome{
		Saved:          true,
		Config:         CacheConfig{WayCycles: bestCycles, HRegionOff: best},
		DisabledWay:    -1,
		DisabledRegion: best,
	}
}

// NaiveBinning is the Section 4.5 strawman: the whole cache is binned at
// the latency of its slowest way, so every load takes that many cycles.
// MaxCycles caps how slow a bin the manufacturer is willing to sell
// (e.g. 5 or 6).
type NaiveBinning struct {
	MaxCycles int
}

func (n NaiveBinning) Name() string { return "NaiveBinning" }

func (n NaiveBinning) Apply(m sram.CacheMeasurement, lim Limits) Outcome {
	if passes(m, lim) {
		return passOutcome(m)
	}
	if m.LeakageW > lim.LeakageW {
		return lostOutcome(m)
	}
	worst := maxInt(wayCycles(m, lim))
	if worst > n.MaxCycles {
		return lostOutcome(m)
	}
	cfg := CacheConfig{WayCycles: make([]int, len(m.Ways)), HRegionOff: -1}
	for i := range cfg.WayCycles {
		cfg.WayCycles[i] = worst
	}
	return Outcome{Saved: true, Config: cfg, DisabledWay: -1, DisabledRegion: -1}
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
