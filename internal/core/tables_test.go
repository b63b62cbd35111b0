package core

import (
	"reflect"
	"sort"
	"testing"
)

// refVerdicts is the plain per-chip loop the verdict pass is checked
// against: Classify each chip, then ask every scheme whether it saves
// the failing ones. saved[i][c] reports whether scheme i saves chip c.
func refVerdicts(pop *Population, lim Limits, schemes []Scheme) (reasons []LossReason, saved [][]bool) {
	saved = make([][]bool, len(schemes))
	for i := range saved {
		saved[i] = make([]bool, len(pop.Chips))
	}
	for c, chip := range pop.Chips {
		r := Classify(chip.Meas, lim)
		reasons = append(reasons, r)
		if r == LossNone {
			continue
		}
		for i, s := range schemes {
			saved[i][c] = s.Apply(chip.Meas, lim).Saved
		}
	}
	return reasons, saved
}

// refBreakdown counts reference verdicts into Table 2/3 form.
func refBreakdown(reasons []LossReason, saved [][]bool, schemes []Scheme) LossBreakdown {
	bd := LossBreakdown{N: len(reasons), Schemes: make([]SchemeLosses, len(schemes))}
	for i, s := range schemes {
		bd.Schemes[i].Scheme = s.Name()
	}
	for c, r := range reasons {
		bd.Base[r]++
		if r == LossNone {
			continue
		}
		bd.BaseTotal++
		for i := range schemes {
			if !saved[i][c] {
				bd.Schemes[i].ByReason[r]++
				bd.Schemes[i].Total++
			}
		}
	}
	return bd
}

// refSavedConfigs counts the failing chips that saved marks as saved
// into Table 6 rows: fewest 6-cycle ways first, then fewest 5-cycle
// ways, timing-limited before leakage-limited, then most 4-cycle ways.
func refSavedConfigs(pop *Population, lim Limits, reasons []LossReason, saved []bool) []SavedConfig {
	counts := make(map[SavedConfig]int)
	for c, r := range reasons {
		if r == LossNone || !saved[c] {
			continue
		}
		row := SavedConfig{LeakageLimited: r == LossLeakage}
		for _, w := range pop.Chips[c].Meas.Ways {
			switch cy := lim.WayCycles(w.LatencyPS); {
			case cy <= BaseCycles:
				row.Key.N4++
			case cy == BaseCycles+1:
				row.Key.N5++
			default:
				row.Key.N6++
			}
		}
		counts[row]++
	}
	rows := make([]SavedConfig, 0, len(counts))
	for row, n := range counts {
		row.Chips = n
		rows = append(rows, row)
	}
	rank := func(r SavedConfig) [4]int {
		leak := 0
		if r.LeakageLimited {
			leak = 1
		}
		return [4]int{r.Key.N6, r.Key.N5, leak, -r.Key.N4}
	}
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := rank(rows[a]), rank(rows[b])
		for k := range ra {
			if ra[k] != rb[k] {
				return ra[k] < rb[k]
			}
		}
		return false
	})
	return rows
}

// TestVerdictReductionsMatchReference checks every reduction of the
// verdict pass against refVerdicts, bit for bit: each count of
// BreakdownLosses, the rows of SavedConfigurations in order, each
// Scatter reason and each TotalsUnderConstraints row, over three seeds,
// both organisations, the three constraint sets and four scheme sets.
func TestVerdictReductionsMatchReference(t *testing.T) {
	n := 2000
	if raceEnabled {
		n = 200
	}
	sets := [][]Scheme{
		{YAPD{}, VACA{}, Hybrid{}},                  // Tables 2 and 4
		{HYAPD{}, VACA{}, Hybrid{Horizontal: true}}, // Tables 3 and 5
		DefaultSweepSchemes(),
		{Base{}, NaiveBinning{MaxCycles: 5}, AdaptiveHybrid{MemoryIntensity: 0.1}, LineDisable{}, Hybrid{Horizontal: true}},
	}
	cs := []Constraints{Nominal(), Relaxed(), Strict()}
	for _, seed := range []int64{2006, 1, 2} {
		reg, hor := build(t, PopulationConfig{N: n, Seed: seed})
		for _, org := range []struct {
			name string
			pop  *Population
		}{{"regular", reg}, {"horizontal", hor}} {
			pop := org.pop
			for si, schemes := range sets {
				totals := TotalsUnderConstraints(pop, reg, cs, schemes...)
				for k, c := range cs {
					at := org.name + "/" + c.Name
					lim := DeriveLimits(reg, c)
					reasons, saved := refVerdicts(pop, lim, schemes)
					want := refBreakdown(reasons, saved, schemes)
					if got := BreakdownLosses(pop, lim, schemes...); !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d %s set %d: BreakdownLosses\n got %+v\nwant %+v", seed, at, si, got, want)
					}
					wantRow := ConstraintTotals{Constraint: c, Base: want.BaseTotal, Schemes: want.Schemes}
					if !reflect.DeepEqual(totals[k], wantRow) {
						t.Errorf("seed %d %s set %d: TotalsUnderConstraints row\n got %+v\nwant %+v", seed, at, si, totals[k], wantRow)
					}
					for i, union := range schemes {
						got := SavedConfigurations(pop, lim, union)
						if want := refSavedConfigs(pop, lim, reasons, saved[i]); !reflect.DeepEqual(got, want) {
							t.Errorf("seed %d %s %s: SavedConfigurations\n got %+v\nwant %+v", seed, at, union.Name(), got, want)
						}
					}
					if si > 0 {
						continue
					}
					for j, pt := range pop.Scatter(lim) {
						if pt.Reason != reasons[j] {
							t.Errorf("seed %d %s: scatter chip %d reason %v, want %v", seed, at, j, pt.Reason, reasons[j])
						}
					}
				}
			}
		}
	}
}
