package yieldcache

// Extensions beyond the paper's evaluation: manufacturing economics,
// measurement-noise (test escape / overkill) analysis, the
// technology-scaling trend, and the adaptive Hybrid policy. See
// DESIGN.md §4 ("Ablations beyond the paper").

import (
	"yieldcache/internal/circuit"
	"yieldcache/internal/core"
	"yieldcache/internal/econ"
	"yieldcache/internal/report"
	"yieldcache/internal/sram"
	"yieldcache/internal/ssta"
	"yieldcache/internal/stats"
	"yieldcache/internal/variation"
)

// Re-exports for the extension surfaces.
type (
	// CostModel prices wafers, dies and degraded parts.
	CostModel = econ.CostModel
	// EconResult is one scheme's wafer economics.
	EconResult = econ.Result
	// MeasurementModel is the tester-accuracy model.
	MeasurementModel = core.MeasurementModel
	// TestOutcome summarises decisions under measurement noise.
	TestOutcome = core.TestOutcome
	// NodeYield is one technology node's yield row.
	NodeYield = core.NodeYield
	// AdaptiveHybrid is the workload-aware Hybrid policy of Section 4.4's
	// discussion.
	AdaptiveHybrid = core.AdaptiveHybrid
)

// DefaultCostModel returns the 45 nm wafer economics used by the
// examples.
func DefaultCostModel() CostModel { return econ.Default45nm() }

// Economics prices the base case and each scheme on the study's
// population: passing chips sell at full price, chips saved by a scheme
// sell at the price of their degraded configuration.
func (s *Study) Economics(e *PerfEvaluator, model CostModel) ([]EconResult, error) {
	bd := s.Table2()
	n := float64(bd.N)
	passFrac := 1 - float64(bd.BaseTotal)/n

	t6 := s.Table6(e)
	mkBins := func(pick func(Table6Row) (float64, bool)) []econ.Bin {
		bins := []econ.Bin{{Fraction: passFrac}}
		for _, r := range t6.Rows {
			if loss, ok := pick(r); ok {
				bins = append(bins, econ.Bin{Fraction: float64(r.Chips) / n, CPILossPct: loss})
			}
		}
		return bins
	}

	specs := []struct {
		name string
		bins []econ.Bin
	}{
		{"Base", []econ.Bin{{Fraction: passFrac}}},
		{"YAPD", mkBins(func(r Table6Row) (float64, bool) { return r.YAPD, r.YAPDOK })},
		{"VACA", mkBins(func(r Table6Row) (float64, bool) { return r.VACA, r.VACAOK })},
		{"Hybrid", mkBins(func(r Table6Row) (float64, bool) { return r.Hybrid, r.HybridOK })},
	}
	out := make([]EconResult, 0, len(specs))
	for _, sp := range specs {
		r, err := model.Evaluate(sp.name, sp.bins)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderEconomics formats the wafer-economics comparison.
func RenderEconomics(rows []EconResult) string {
	t := report.NewTable("Wafer economics by scheme",
		"scheme", "parametric yield [%]", "sellable dies/wafer", "revenue/wafer [$]", "cost/die [$]")
	for _, r := range rows {
		t.AddRow(r.Scheme, r.SellableFraction*100, r.DiesPerWafer, r.RevenuePerWafer, r.CostPerDie)
	}
	return t.String()
}

// MeasurementStudy evaluates a scheme's shipping decisions under
// tester noise on the regular population.
func (s *Study) MeasurementStudy(scheme Scheme, mm MeasurementModel) TestOutcome {
	return core.EvaluateUnderNoise(s.Regular, s.Limits, scheme, mm)
}

// SchemeBase returns the baseline scheme: ship a chip only if it meets
// both limits unmodified. Its losses are the "base" column of Table 2.
func SchemeBase() Scheme { return core.Base{} }

// SchemeYAPD returns yield-aware power-down (Section 4.1): power down
// whole ways that violate the delay or leakage limit, vertically.
func SchemeYAPD() Scheme { return core.YAPD{} }

// SchemeHYAPD returns the horizontal variant of YAPD (Section 4.3),
// which powers down a horizontal region across all ways. Apply it to a
// study's horizontal population.
func SchemeHYAPD() Scheme { return core.HYAPD{} }

// SchemeVACA returns variable-access-time cache binning (Section 4.2):
// slow ways are kept enabled but accessed in extra cycles.
func SchemeVACA() Scheme { return core.VACA{} }

// SchemeHybrid returns the combined scheme (Section 4.4) that tries
// VACA-style slow-way binning first and falls back to powering down.
// With horizontal set it disables horizontal regions instead of ways.
func SchemeHybrid(horizontal bool) Scheme { return core.Hybrid{Horizontal: horizontal} }

// SchemeNaiveBinning returns the speed-binning strawman: ship every
// chip at its slowest way's cycle count, provided that count does not
// exceed maxCycles. No power-down, so leakage violators are lost.
func SchemeNaiveBinning(maxCycles int) Scheme {
	return core.NaiveBinning{MaxCycles: maxCycles}
}

// SchemeLineDisable returns the cache-line-disable comparison point:
// individual faulty lines are disabled, up to maxFrac of the cache.
func SchemeLineDisable(maxFrac float64) Scheme {
	return core.LineDisable{MaxDisabledFrac: maxFrac}
}

// SSTAComparison contrasts the analytical (first-order canonical SSTA)
// latency distribution against the Monte Carlo population — the
// Section 2 trade-off between efficiency and accuracy, quantified.
type SSTAComparison struct {
	AnalyticMeanPS  float64
	AnalyticSigmaPS float64
	MCMeanPS        float64
	MCSigmaPS       float64
	// Violation percentages against the study's delay limit.
	AnalyticViolationPct float64
	MCViolationPct       float64
}

// CompareSSTA runs the block-based SSTA on the same cache and compares
// its latency prediction with the study's Monte Carlo population. The
// analytical tail comes out lighter (the sense-margin nonlinearity and
// the sub-chip spatial structure are linearised away), which is why the
// paper — like this reproduction — uses Monte Carlo for the yield
// numbers.
func (s *Study) CompareSSTA() SSTAComparison {
	an := ssta.AnalyzeCache(circuit.PTM45(), variation.Nassif45nm(), sram.Paper16KB(), false)
	lat := s.Regular.Latencies()
	m, sd := stats.MeanStd(lat)
	viol := 0
	for _, l := range lat {
		if l > s.Limits.DelayPS {
			viol++
		}
	}
	return SSTAComparison{
		AnalyticMeanPS:       an.Latency.Mean,
		AnalyticSigmaPS:      an.Latency.Sigma(),
		MCMeanPS:             m,
		MCSigmaPS:            sd,
		AnalyticViolationPct: an.Latency.ProbAbove(s.Limits.DelayPS) * 100,
		MCViolationPct:       float64(viol) / float64(len(lat)) * 100,
	}
}

// RenderSSTA formats the comparison.
func RenderSSTA(c SSTAComparison) string {
	t := report.NewTable("SSTA vs Monte Carlo (cache access latency)",
		"method", "mean [ps]", "sigma [ps]", "P(delay violation) [%]")
	t.AddRow("SSTA (canonical, Clark max)", c.AnalyticMeanPS, c.AnalyticSigmaPS, c.AnalyticViolationPct)
	t.AddRow("Monte Carlo (2000 chips)", c.MCMeanPS, c.MCSigmaPS, c.MCViolationPct)
	return t.String()
}

// TechnologyTrend evaluates the parametric yield across the 90/65/45/32
// nm nodes — the modelled counterpart of Figure 1's parametric
// component.
func TechnologyTrend(chips int, seed int64) ([]NodeYield, error) {
	return core.YieldTrend(chips, seed)
}

// RenderTrend formats the technology trend.
func RenderTrend(rows []NodeYield) string {
	t := report.NewTable("Parametric yield vs technology node (modelled Figure 1 trend)",
		"node [nm]", "base [%]", "YAPD [%]", "Hybrid [%]", "leakage losses", "delay losses")
	for _, r := range rows {
		t.AddRow(r.NodeNM, r.BaseYield*100, r.YAPDYield*100, r.HybridYield*100,
			r.LeakageLoss, r.DelayLoss)
	}
	return t.String()
}
