package yieldcache

import (
	"context"

	"yieldcache/internal/core"
	"yieldcache/internal/obs"
	"yieldcache/internal/report"
)

// Re-exported core types: the facade's vocabulary is the paper's.
type (
	// Constraints is a yield requirement (delay mean+k*sigma, leakage
	// m*average).
	Constraints = core.Constraints
	// Limits are absolute pass/fail thresholds.
	Limits = core.Limits
	// LossBreakdown is the content of Tables 2/3.
	LossBreakdown = core.LossBreakdown
	// Interval is a confidence interval on one yield.
	Interval = core.Interval
	// ConstraintTotals is one row of Tables 4/5.
	ConstraintTotals = core.ConstraintTotals
	// ScatterPoint is one chip of Figure 8.
	ScatterPoint = core.ScatterPoint
	// CacheConfig is a saved chip's cache configuration.
	CacheConfig = core.CacheConfig
	// SavedConfig is one Table 6 row key.
	SavedConfig = core.SavedConfig
	// Scheme is a yield-aware cache architecture.
	Scheme = core.Scheme
	// LossReason classifies a parametric failure.
	LossReason = core.LossReason
	// EstimateConfig arms streaming yield estimation on a study build
	// (StudyConfig.Estimate): live Wilson confidence intervals,
	// per-loss-reason error bars and optional precision-targeted
	// stopping.
	EstimateConfig = core.EstimateConfig
	// YieldEstimate is one streaming snapshot of a build's statistical
	// state (and, via Study.Estimate, the final one).
	YieldEstimate = core.YieldEstimate
	// ReasonEstimate is one loss reason's share with its confidence
	// interval inside a YieldEstimate.
	ReasonEstimate = core.ReasonEstimate
)

// The constraint sets of Section 5.1.
var (
	Nominal = core.Nominal
	Relaxed = core.Relaxed
	Strict  = core.Strict
)

// ConstraintSets returns the constraint sets of Section 5.1 in order:
// nominal, relaxed, strict.
func ConstraintSets() []Constraints { return []Constraints{Nominal(), Relaxed(), Strict()} }

// NamedConstraints returns the set of ConstraintSets called name, and
// false when there is none.
func NamedConstraints(name string) (Constraints, bool) {
	for _, c := range ConstraintSets() {
		if c.Name == name {
			return c, true
		}
	}
	return Constraints{}, false
}

// LossNoneReason returns the classification of a chip with no
// parametric violation.
func LossNoneReason() LossReason { return core.LossNone }

// LossLeakageReason returns the classification of a chip lost to the
// leakage limit — the Table 2/3 "leakage" row.
func LossLeakageReason() LossReason { return core.LossLeakage }

// LossDelayWays returns the reason for a delay violation by n ways
// (1 <= n <= 4).
func LossDelayWays(n int) LossReason { return core.LossDelay1 + core.LossReason(n-1) }

// AllLossReasons lists the loss rows in table order.
func AllLossReasons() []LossReason { return core.LossReasons() }

// StudyConfig parameterises a yield study.
type StudyConfig struct {
	// Chips is the Monte Carlo population size (default 2000, the
	// paper's).
	Chips int
	// Seed drives all process-variation sampling (default 2006).
	Seed int64
	// Constraints selects the yield requirement (default Nominal()).
	Constraints *Constraints
	// Estimate arms streaming yield estimation on the build: snapshots
	// with confidence intervals reach Estimate.Sink while chips are
	// measured, the final one lands on Study.Estimate, and a positive
	// TargetCIWidth stops sampling early once the yield interval is
	// tight enough (the study's populations are then truncated to the
	// measured prefix). Its Constraints default to the study's. Nil
	// adds nothing to the build's hot loop.
	Estimate *EstimateConfig
}

// Study holds the two cache-organisation populations (regular, and
// H-YAPD derived from it, so both see identical variation draws) and
// the derived limits.
type Study struct {
	Regular    *core.Population
	Horizontal *core.Population
	Cons       Constraints
	Limits     Limits
	// Estimate is the final streaming yield estimate when
	// StudyConfig.Estimate armed estimation (nil otherwise). Its
	// EarlyStop field reports whether a precision target truncated the
	// build; the populations' chip counts reflect any truncation.
	Estimate *YieldEstimate
}

// NewStudy builds the Monte Carlo populations and derives the limits
// from the regular organisation, as in Section 5.1. It panics on an
// invalid config (a negative Chips), which NewStudyCtx reports as an
// error instead.
func NewStudy(cfg StudyConfig) *Study {
	s, err := NewStudyCtx(context.Background(), cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewStudyCtx is NewStudy with cancellation and errors: the Monte Carlo
// population build aborts early and returns ctx.Err() when ctx is
// cancelled or its deadline passes, and an invalid config (a negative
// Chips) is an error. Servers use it to bound a study by a request
// timeout.
// When ctx carries an obs.Scope (yieldd's per-job telemetry), the
// study's phase spans and progress counters land on that scope instead
// of the process-global tracer.
func NewStudyCtx(ctx context.Context, cfg StudyConfig) (*Study, error) {
	sp := obs.StartSpanCtx(ctx, "new_study")
	defer sp.End()
	if cfg.Seed == 0 {
		cfg.Seed = 2006
	}
	cons := Nominal()
	if cfg.Constraints != nil {
		cons = *cfg.Constraints
	}
	pcfg := core.PopulationConfig{N: cfg.Chips, Seed: cfg.Seed}
	if cfg.Estimate != nil {
		// Work on a copy: the estimate classifies against the study's
		// constraints unless the caller pinned its own.
		ecfg := *cfg.Estimate
		if ecfg.Constraints == (Constraints{}) {
			ecfg.Constraints = cons
		}
		pcfg.Estimate = &ecfg
	}
	res, err := core.Build(ctx, pcfg)
	if err != nil {
		return nil, err
	}
	lsp := obs.StartSpanCtx(ctx, "derive_limits")
	lim := core.DeriveLimits(res.Regular, cons)
	lsp.End()
	return &Study{
		Regular:    res.Regular,
		Horizontal: core.DeriveHorizontal(res.Regular),
		Cons:       cons,
		Limits:     lim,
		Estimate:   res.Estimate,
	}, nil
}

// Breakdown classifies the regular population's losses under a
// caller-chosen scheme set — Table 2 with custom columns. The yieldd
// study endpoint uses it to honour a request's scheme list.
func (s *Study) Breakdown(schemes ...Scheme) LossBreakdown {
	return core.BreakdownLosses(s.Regular, s.Limits, schemes...)
}

// BreakdownHorizontal classifies the horizontal-power-down population's
// losses under a caller-chosen scheme set — Table 3 with custom columns.
// Limits stay those of the regular organisation (see Table3).
func (s *Study) BreakdownHorizontal(schemes ...Scheme) LossBreakdown {
	return core.BreakdownLosses(s.Horizontal, s.Limits, schemes...)
}

// Totals evaluates the regular population under extra constraint sets
// with a caller-chosen scheme set — Table 4 with custom columns.
func (s *Study) Totals(cs []Constraints, schemes ...Scheme) []ConstraintTotals {
	return core.TotalsUnderConstraints(s.Regular, s.Regular, cs, schemes...)
}

// TotalsHorizontal evaluates the horizontal population under extra
// constraint sets — Table 5 with custom columns. Limits derive from the
// regular organisation, as everywhere.
func (s *Study) TotalsHorizontal(cs []Constraints, schemes ...Scheme) []ConstraintTotals {
	return core.TotalsUnderConstraints(s.Horizontal, s.Regular, cs, schemes...)
}

// Table2 returns the loss breakdown of the regular cache under YAPD,
// VACA and Hybrid.
func (s *Study) Table2() LossBreakdown {
	return s.Breakdown(core.YAPD{}, core.VACA{}, core.Hybrid{})
}

// Table3 returns the loss breakdown of the horizontal-power-down cache
// under H-YAPD, VACA and the horizontal Hybrid. Limits stay those of the
// regular organisation, so the 2.5% H-YAPD latency tax shows up as extra
// base losses, matching Section 5.1.
func (s *Study) Table3() LossBreakdown {
	return s.BreakdownHorizontal(core.HYAPD{}, core.VACA{}, core.Hybrid{Horizontal: true})
}

// Table4 returns total losses for the relaxed and strict constraint sets
// on the regular cache.
func (s *Study) Table4() []ConstraintTotals {
	return s.Totals([]Constraints{Relaxed(), Strict()},
		core.YAPD{}, core.VACA{}, core.Hybrid{})
}

// Table5 returns total losses for the relaxed and strict constraint sets
// on the horizontal-power-down cache.
func (s *Study) Table5() []ConstraintTotals {
	return s.TotalsHorizontal([]Constraints{Relaxed(), Strict()},
		core.HYAPD{}, core.VACA{}, core.Hybrid{Horizontal: true})
}

// Figure8 returns the latency-vs-normalised-leakage scatter of the
// regular population.
func (s *Study) Figure8() []ScatterPoint {
	return s.Regular.Scatter(s.Limits)
}

// SavedConfigurations returns the Table 6 row keys: the way-latency
// configurations of chips converted from loss to gain (by the Hybrid,
// which saves the union of what the schemes save), with frequencies.
func (s *Study) SavedConfigurations() []SavedConfig {
	return core.SavedConfigurations(s.Regular, s.Limits, core.Hybrid{})
}

// RenderBreakdown renders a LossBreakdown as the paper's Table 2/3
// layout.
func RenderBreakdown(title string, bd LossBreakdown) string {
	headers := []string{"Reason of Loss", "# Chips"}
	for _, s := range bd.Schemes {
		headers = append(headers, s.Scheme)
	}
	t := report.NewTable(title, headers...)
	for _, r := range core.LossReasons() {
		row := []interface{}{r.String(), bd.Base[r]}
		for _, s := range bd.Schemes {
			row = append(row, s.ByReason[r])
		}
		t.AddRow(row...)
	}
	total := []interface{}{"Total", bd.BaseTotal}
	for _, s := range bd.Schemes {
		total = append(total, s.Total)
	}
	t.AddRow(total...)
	return t.String()
}

// RenderTotals renders Tables 4/5.
func RenderTotals(title string, rows []ConstraintTotals) string {
	if len(rows) == 0 {
		return title + "\n(no rows)\n"
	}
	headers := []string{"Constraint", "# Chips"}
	for _, s := range rows[0].Schemes {
		headers = append(headers, s.Scheme)
	}
	t := report.NewTable(title, headers...)
	for _, r := range rows {
		row := []interface{}{r.Constraint.Name, r.Base}
		for _, s := range r.Schemes {
			row = append(row, s.Total)
		}
		t.AddRow(row...)
	}
	return t.String()
}

// RenderFigure8 renders the scatter plot as text; loss reasons get their
// own glyphs (l = leakage loss, d = delay loss, . = passing).
func RenderFigure8(pts []ScatterPoint, width, height int) string {
	rp := make([]report.Point, len(pts))
	for i, p := range pts {
		g := '.'
		switch {
		case p.Reason == core.LossLeakage:
			g = 'l'
		case p.Reason != core.LossNone:
			g = 'd'
		}
		rp[i] = report.Point{X: p.LatencyPS, Y: p.NormalizedLeakage, Glyph: g}
	}
	return report.Scatter(
		"Figure 8: normalized leakage vs cache latency (l=leakage loss, d=delay loss)",
		"latency [ps]", "leakage / average", rp, width, height)
}
