package core

// AdaptiveHybrid implements the policy Section 4.4 discusses but leaves
// fixed in the paper: when a chip can be saved either by keeping a
// 5-cycle way enabled (VACA behaviour) or by turning it off (YAPD
// behaviour), choose per workload. A memory-intensive application loses
// more from the capacity cut than from the extra cycle; a
// compute-intensive one prefers the smaller cache at full speed.
//
// The decision is driven by a MemoryIntensity figure in [0, 1] — the
// fraction of execution time attributable to the data cache (miss-rate
// times miss-cost normalised), which a deployment would profile once.
// Intensity above Threshold keeps ways on; below it, the slowest
// 5-cycle way is powered down too when that still satisfies the
// constraints.
type AdaptiveHybrid struct {
	// MemoryIntensity of the target application, in [0, 1].
	MemoryIntensity float64
	// Threshold above which ways are kept enabled (default 0.5 when
	// zero).
	Threshold float64
}

func (AdaptiveHybrid) Name() string { return "AdaptiveHybrid" }

func (a AdaptiveHybrid) threshold() float64 {
	if a.Threshold == 0 {
		return 0.5
	}
	return a.Threshold
}

// Apply saves exactly the chips the fixed Hybrid saves (the policy only
// changes the *configuration* of saved chips, never sacrifices one),
// but for compute-bound workloads it additionally powers down a
// 5-cycle way when no way had to be disabled for other reasons.
func (a AdaptiveHybrid) Apply(m CacheView, lim Limits) Outcome {
	out := Hybrid{}.Apply(m, lim)
	if !out.Saved || out.Passing {
		return out
	}
	if a.MemoryIntensity >= a.threshold() {
		return out // memory-bound: keep every way on, eat the 5th cycle
	}
	if out.DisabledWay >= 0 {
		return out // the single allowed shutdown is already spent
	}
	// Compute-bound: turn off the slowest 5-cycle way if the chip still
	// meets the constraints without it.
	slowest, worst := -1, 0.0
	for i, cy := range out.Config.WayCycles {
		if cy > BaseCycles && m.Ways[i].LatencyPS > worst {
			slowest, worst = i, m.Ways[i].LatencyPS
		}
	}
	if slowest < 0 {
		return out
	}
	if m.LeakageW-m.Ways[slowest].LeakageW > lim.LeakageW {
		return out
	}
	cfg := CacheConfig{WayCycles: append([]int(nil), out.Config.WayCycles...), HRegionOff: -1}
	cfg.WayCycles[slowest] = 0
	return Outcome{Saved: true, Config: cfg, DisabledWay: slowest, DisabledRegion: -1}
}

// LineDisable is the finer-grained baseline of the related-work
// comparison (Agarwal et al. [3]): individual cache lines — here,
// bank-rows — that fail timing are disabled instead of whole ways or
// regions. It ignores the spatial correlation the paper exploits, so it
// needs no budget on how many ways it touches, but it cannot reduce
// leakage (disabled lines are a tiny fraction of the array) and a way
// whose periphery (decoder, sense amps) is slow fails on every row.
//
// MaxDisabledFrac caps the fraction of rows that may be turned off
// before the capacity loss is considered unacceptable (the paper's 2%
// performance budget translated to capacity).
type LineDisable struct {
	MaxDisabledFrac float64 // default 0.25 when zero
}

func (LineDisable) Name() string { return "LineDisable" }

func (l LineDisable) maxFrac() float64 {
	if l.MaxDisabledFrac == 0 {
		return 0.25
	}
	return l.MaxDisabledFrac
}

// Apply disables every representative path (row region) that violates
// the delay limit, way by way. The chip is saved if the disabled
// fraction stays within budget and leakage meets the limit (line
// disabling barely moves leakage, so leakage violators are lost).
func (l LineDisable) Apply(m CacheView, lim Limits) Outcome {
	if passes(m, lim) {
		return passOutcome(m)
	}
	if m.LeakageW > lim.LeakageW {
		return lostOutcome(m)
	}
	totalPaths, disabled := 0, 0
	for _, w := range m.Ways {
		for _, b := range w.Banks {
			for _, p := range b.Paths {
				totalPaths++
				if p.DelayPS > lim.DelayPS {
					disabled++
				}
			}
		}
	}
	if totalPaths == 0 || float64(disabled)/float64(totalPaths) > l.maxFrac() {
		return lostOutcome(m)
	}
	// All remaining paths meet timing by construction; the performance
	// configuration is the full 4-way cache with proportionally reduced
	// capacity, which we conservatively report as the base config (the
	// CPI cost of scattered dead lines is bounded by the way-shutdown
	// cost the budget encodes).
	return Outcome{Saved: true, Config: BaseConfig(len(m.Ways)), DisabledWay: -1, DisabledRegion: -1}
}
