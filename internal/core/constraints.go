// Package core implements the paper's primary contribution: parametric
// yield analysis of the L1 data cache under process variation, and the
// four yield-aware schemes — YAPD, H-YAPD, VACA and Hybrid — that convert
// would-be parametric losses into working (slightly degraded) parts.
//
// The flow mirrors Section 5.1: build a Monte Carlo population of chips
// (package sram provides per-way latency and leakage), derive the delay
// and leakage limits from the population statistics, classify each chip's
// loss reason, and ask each scheme whether it can save the chip and at
// what configuration (which package cpu then prices in CPI).
package core

import (
	"fmt"
	"math"

	"yieldcache/internal/sram"
	"yieldcache/internal/stats"
)

// BaseCycles is the nominal L1 data cache hit latency in cycles
// (Section 4.3: "cache hit latency, which is four cycles in our
// architecture").
const BaseCycles = 4

// MaxVACACycles is the slowest access VACA can tolerate: the load-bypass
// buffers have a single entry, allowing 4- or 5-cycle accesses
// (Section 4.3). Ways needing more are a loss for VACA and must be
// powered down by the Hybrid scheme.
const MaxVACACycles = 5

// Constraints expresses a yield requirement in the paper's parametric
// form: the delay limit sits DelaySigmaK standard deviations above the
// population mean latency, and the leakage limit is LeakageMult times
// the population average leakage.
type Constraints struct {
	Name        string
	DelaySigmaK float64
	LeakageMult float64
}

// The three constraint sets of Section 5.1.
func Nominal() Constraints { return Constraints{Name: "nominal", DelaySigmaK: 1.0, LeakageMult: 3} }
func Relaxed() Constraints { return Constraints{Name: "relaxed", DelaySigmaK: 1.5, LeakageMult: 4} }
func Strict() Constraints  { return Constraints{Name: "strict", DelaySigmaK: 0.5, LeakageMult: 2} }

// Limits are the absolute pass/fail thresholds derived from a reference
// population. Both cache organisations (regular and H-YAPD) are judged
// against limits derived from the *regular* population — the chips are
// sold at the same frequency bin regardless of their internal decoder
// organisation — which is why the H-YAPD base case loses more chips
// (Section 5.1: 18.1% vs 16.9%).
type Limits struct {
	DelayPS  float64 // maximum cache access latency that still bins at BaseCycles
	LeakageW float64 // maximum total cache leakage power
}

// CycleTimePS returns the clock budget of a single cycle: the delay
// limit spread over the BaseCycles pipeline cycles of a hit.
func (l Limits) CycleTimePS() float64 { return l.DelayPS / BaseCycles }

// WayCycles returns the number of cycles a way with the given latency
// needs: BaseCycles if it meets the limit, and one more for each extra
// cycle budget it spills into.
func (l Limits) WayCycles(latencyPS float64) int {
	if latencyPS <= l.DelayPS {
		return BaseCycles
	}
	return int(math.Ceil(latencyPS / l.CycleTimePS()))
}

// DeriveLimits computes the absolute limits from the reference (regular
// organisation) population under the given constraints.
func DeriveLimits(ref *Population, c Constraints) Limits {
	lat := ref.Latencies()
	leak := ref.Leakages()
	m, s := stats.MeanStd(lat)
	return Limits{
		DelayPS:  m + c.DelaySigmaK*s,
		LeakageW: c.LeakageMult * stats.Mean(leak),
	}
}

// LossReason classifies why a chip fails the parametric test, following
// the row structure of Tables 2 and 3. Leakage takes priority: a chip
// over the leakage limit is counted in the leakage row regardless of its
// delay behaviour (delay-violating ways still matter to the schemes).
type LossReason int

const (
	LossNone    LossReason = iota // chip passes both constraints
	LossLeakage                   // leakage constraint violated
	LossDelay1                    // delay constraint violated by exactly 1 way
	LossDelay2
	LossDelay3
	LossDelay4
)

func (r LossReason) String() string {
	switch r {
	case LossNone:
		return "none"
	case LossLeakage:
		return "Leakage Constraint"
	case LossDelay1, LossDelay2, LossDelay3, LossDelay4:
		return fmt.Sprintf("Delay Constraint (%d Way)", int(r-LossDelay1)+1)
	default:
		return fmt.Sprintf("LossReason(%d)", int(r))
	}
}

// NumLossReasons is the number of distinct loss rows (the length of
// LossReasons). Counts indexed by LossReason, LossNone included, are
// [NumLossReasons + 1]int arrays, so no verdict pass allocates for them.
const NumLossReasons = 5

// LossReasons lists the loss rows in table order.
func LossReasons() []LossReason {
	return []LossReason{LossLeakage, LossDelay1, LossDelay2, LossDelay3, LossDelay4}
}

// Classify returns the loss reason of a chip under the given limits.
func Classify(m sram.CacheMeasurement, lim Limits) LossReason {
	if m.LeakageW > lim.LeakageW {
		return LossLeakage
	}
	n := 0
	for _, w := range m.Ways {
		if w.LatencyPS > lim.DelayPS {
			n++
		}
	}
	if n == 0 {
		return LossNone
	}
	return LossDelay1 + LossReason(n-1)
}
