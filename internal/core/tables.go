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
	ByReason [NumLossReasons + 1]int // indexed by LossReason
	Total    int
}

// LossBreakdown is the full content of Table 2 (regular power-down) or
// Table 3 (horizontal power-down): the base-case loss counts by reason
// and, for each scheme, the losses that remain.
type LossBreakdown struct {
	N         int                     // population size
	Base      [NumLossReasons + 1]int // chips by LossReason; Base[LossNone] pass
	BaseTotal int
	Schemes   []SchemeLosses
}

// chipVerdicts are the buffers of one verdict pass: each chip's
// base-case loss reason and, per scheme, a bitset with bit c set when
// the scheme saves failing chip c.
type chipVerdicts struct {
	reasons []LossReason
	saved   [][]uint64
}

// verdicts is the one pass that decides every verdict the program
// reports (Section 5.1): it classifies each chip under lim and asks each
// scheme whether it saves the failing ones. It returns the chips by
// loss reason, the passing ones under LossNone, and counts in lost[i],
// one entry per scheme, the failing chips scheme i leaves lost. Given
// buffers v it also records each chip's verdicts; without them it
// allocates nothing.
func verdicts(chips []Chip, lim Limits, schemes []Scheme, lost []SchemeLosses, v *chipVerdicts) (n [NumLossReasons + 1]int) {
	for c := range chips {
		m := chips[c].Meas
		r := Classify(m, lim)
		n[r]++
		if v != nil {
			v.reasons[c] = r
		}
		if r == LossNone {
			continue
		}
		for i, s := range schemes {
			switch {
			case !s.Apply(m, lim).Saved:
				lost[i].ByReason[r]++
				lost[i].Total++
			case v != nil:
				v.saved[i][c/64] |= 1 << (c % 64)
			}
		}
	}
	return n
}

// BreakdownLosses classifies every chip of the population under the
// given limits and applies each scheme to the failing ones.
func BreakdownLosses(pop *Population, lim Limits, schemes ...Scheme) LossBreakdown {
	sp := obs.StartSpan("breakdown_losses")
	defer sp.End()
	bd := LossBreakdown{N: len(pop.Chips), Schemes: make([]SchemeLosses, len(schemes))}
	for i, s := range schemes {
		bd.Schemes[i].Scheme = s.Name()
	}
	bd.Base = verdicts(pop.Chips, lim, schemes, bd.Schemes, nil)
	bd.BaseTotal = bd.N - bd.Base[LossNone]
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
	n := len(pop.Chips)
	v := chipVerdicts{reasons: make([]LossReason, n), saved: [][]uint64{make([]uint64, (n+63)/64)}}
	verdicts(pop.Chips, lim, []Scheme{union}, make([]SchemeLosses, 1), &v)
	counts := make(map[rk]int)
	for c, r := range v.reasons {
		if v.saved[0][c/64]&(1<<(c%64)) == 0 {
			continue
		}
		var key ConfigKey
		key.N4, key.N5, key.N6 = CacheConfig{WayCycles: wayCycles(pop.Chips[c].Meas, lim)}.Counts()
		counts[rk{key, r == LossLeakage}]++
	}
	rows := make([]SavedConfig, 0, len(counts))
	for k, chips := range counts {
		rows = append(rows, SavedConfig{Key: k.key, Chips: chips, LeakageLimited: k.leak})
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
		out = append(out, ConstraintTotals{Constraint: c, Base: bd.BaseTotal, Schemes: bd.Schemes})
	}
	return out
}
