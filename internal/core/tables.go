package core

import (
	"sort"

	"yieldcache/internal/obs"
	"yieldcache/internal/stats"
)

// SchemeLosses is one scheme's column in Tables 2/3: how many chips of
// each base-case loss category remain lost under the scheme.
type SchemeLosses struct {
	Scheme   string
	ByReason map[LossReason]int
	Total    int
}

// LossBreakdown is the full content of Table 2 (regular power-down) or
// Table 3 (horizontal power-down): the base-case loss counts by reason
// and, for each scheme, the losses that remain.
type LossBreakdown struct {
	N         int // population size
	Base      map[LossReason]int
	BaseTotal int
	Schemes   []SchemeLosses
}

// BreakdownLosses classifies every chip of the population under the
// given limits and applies each scheme to the failing ones.
func BreakdownLosses(pop *Population, lim Limits, schemes ...Scheme) LossBreakdown {
	sp := obs.StartSpan("breakdown_losses")
	defer sp.End()
	bd := LossBreakdown{
		N:    len(pop.Chips),
		Base: make(map[LossReason]int),
	}
	for _, s := range schemes {
		bd.Schemes = append(bd.Schemes, SchemeLosses{
			Scheme:   s.Name(),
			ByReason: make(map[LossReason]int),
		})
	}
	for _, chip := range pop.Chips {
		reason := Classify(chip.Meas, lim)
		if reason == LossNone {
			continue
		}
		bd.Base[reason]++
		bd.BaseTotal++
		for i, s := range schemes {
			if out := s.Apply(chip.Meas, lim); !out.Saved {
				bd.Schemes[i].ByReason[reason]++
				bd.Schemes[i].Total++
			}
		}
	}
	obs.C("core_chips_classified_total").Add(int64(bd.N))
	obs.C("core_chips_lost_base_total").Add(int64(bd.BaseTotal))
	for _, s := range bd.Schemes {
		obs.C(`core_scheme_saved_total{scheme="` + s.Scheme + `"}`).
			Add(int64(bd.BaseTotal - s.Total))
		obs.C(`core_scheme_lost_total{scheme="` + s.Scheme + `"}`).
			Add(int64(s.Total))
	}
	return bd
}

// Yield returns the fraction of sellable chips for the scheme at column
// index i (the base case for i < 0).
func (bd LossBreakdown) Yield(i int) float64 {
	return 1 - float64(bd.lost(i))/float64(bd.N)
}

// YieldCI returns the interval on Yield(i) at confidence conf.
func (bd LossBreakdown) YieldCI(i int, conf float64) Interval {
	return yieldInterval(int64(bd.N-bd.lost(i)), int64(bd.N), conf)
}

// lost is the loss count of column i (the base case for i < 0).
func (bd LossBreakdown) lost(i int) int {
	if i < 0 {
		return bd.BaseTotal
	}
	return bd.Schemes[i].Total
}

// Interval is a confidence interval on one yield or loss share.
type Interval struct {
	Low  float64 `json:"ci_low"`
	High float64 `json:"ci_high"`
}

// HalfWidth is half the interval's width, the precision a target
// CI width is checked against.
func (c Interval) HalfWidth() float64 { return (c.High - c.Low) / 2 }

// yieldInterval is the one computation behind every reported interval:
// the Wilson score interval on k sellable (or lost) chips out of n at
// confidence conf.
func yieldInterval(k, n int64, conf float64) Interval {
	lo, hi := stats.WilsonInterval(k, n, conf)
	return Interval{Low: lo, High: hi}
}

// LossReduction returns the fractional reduction in parametric yield
// loss achieved by scheme column i relative to the base case (the
// "yield losses can be reduced by 68.1%..." numbers of the abstract).
func (bd LossBreakdown) LossReduction(i int) float64 {
	if bd.BaseTotal == 0 {
		return 0
	}
	return 1 - float64(bd.Schemes[i].Total)/float64(bd.BaseTotal)
}

// ConfigKey identifies a cache-way latency configuration by how many
// ways need 4, 5 and 6-or-more cycles — the row labels of Table 6.
// Leakage-limited chips that meet timing appear as {4, 0, 0}.
type ConfigKey struct {
	N4, N5, N6 int
}

// SavedConfig is one row of Table 6: a configuration, how many saved
// chips exhibit it, and which schemes can save it.
type SavedConfig struct {
	Key   ConfigKey
	Chips int
	// LeakageLimited reports whether the chips behind this row failed the
	// leakage constraint (relevant for the {4,0,0} row).
	LeakageLimited bool
}

// SavedConfigurations tabulates, over chips that fail the base test but
// are saved by the union scheme (the Hybrid — every chip any scheme can
// save, the Hybrid saves too), the original way-latency configuration.
// Rows are keyed by (N4, N5, N6) and split on leakage-limited, mirroring
// Table 6 where 4-0-0 denotes leakage-limited chips.
func SavedConfigurations(pop *Population, lim Limits, union Scheme) []SavedConfig {
	type rk struct {
		key  ConfigKey
		leak bool
	}
	counts := make(map[rk]int)
	for _, chip := range pop.Chips {
		reason := Classify(chip.Meas, lim)
		if reason == LossNone {
			continue
		}
		out := union.Apply(chip.Meas, lim)
		if !out.Saved {
			continue
		}
		cycles := wayCycles(chip.Meas, lim)
		var key ConfigKey
		for _, cy := range cycles {
			switch {
			case cy <= BaseCycles:
				key.N4++
			case cy == BaseCycles+1:
				key.N5++
			default:
				key.N6++
			}
		}
		counts[rk{key, reason == LossLeakage}]++
	}
	rows := make([]SavedConfig, 0, len(counts))
	for k, n := range counts {
		rows = append(rows, SavedConfig{Key: k.key, Chips: n, LeakageLimited: k.leak})
	}
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		if ra.Key.N6 != rb.Key.N6 {
			return ra.Key.N6 < rb.Key.N6
		}
		if ra.Key.N5 != rb.Key.N5 {
			return ra.Key.N5 < rb.Key.N5
		}
		if ra.LeakageLimited != rb.LeakageLimited {
			return !ra.LeakageLimited
		}
		return ra.Key.N4 > rb.Key.N4
	})
	return rows
}

// ConstraintTotals is one row of Tables 4/5: the base-case loss count
// and per-scheme remaining losses under one constraint set.
type ConstraintTotals struct {
	Constraint Constraints
	Base       int
	Schemes    []SchemeLosses
}

// TotalsUnderConstraints evaluates the population under several
// constraint sets (Tables 4 and 5 use relaxed and strict). Limits are
// always derived from the reference population ref (the regular
// organisation), while losses are counted on pop.
func TotalsUnderConstraints(pop, ref *Population, cs []Constraints, schemes ...Scheme) []ConstraintTotals {
	out := make([]ConstraintTotals, 0, len(cs))
	for _, c := range cs {
		lim := DeriveLimits(ref, c)
		bd := BreakdownLosses(pop, lim, schemes...)
		row := ConstraintTotals{Constraint: c, Base: bd.BaseTotal}
		for _, s := range bd.Schemes {
			row.Schemes = append(row.Schemes, SchemeLosses{Scheme: s.Scheme, Total: s.Total})
		}
		out = append(out, row)
	}
	return out
}
