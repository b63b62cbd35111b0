package yieldcache

import (
	"context"
	"strings"
	"testing"
)

// smallStudy builds a reduced population so the facade tests stay fast;
// the statistical assertions below are on coarse properties that hold at
// this size.
func smallStudy(t *testing.T) *Study {
	t.Helper()
	return NewStudy(StudyConfig{Chips: 400, Seed: 2006})
}

func TestStudyDefaults(t *testing.T) {
	s := NewStudy(StudyConfig{Chips: 50})
	if len(s.Regular.Chips) != 50 || len(s.Horizontal.Chips) != 50 {
		t.Fatal("population sizes wrong")
	}
	if s.Cons.Name != "nominal" {
		t.Errorf("default constraints = %s", s.Cons.Name)
	}
	if s.Limits.DelayPS <= 0 || s.Limits.LeakageW <= 0 {
		t.Error("limits not derived")
	}
}

// TestStudyRejectsNegativeChips checks that a negative population size
// reaches the caller as an error from every facade entry point that
// takes one, instead of a panic in the chip arena.
func TestStudyRejectsNegativeChips(t *testing.T) {
	if _, err := NewStudyCtx(context.Background(), StudyConfig{Chips: -5}); err == nil {
		t.Error("NewStudyCtx accepted Chips: -5")
	}
	if _, err := TechnologyTrend(-1, 2006); err == nil {
		t.Error("TechnologyTrend accepted chips -1")
	}
}

func TestStudyDeterminism(t *testing.T) {
	a := NewStudy(StudyConfig{Chips: 60, Seed: 7})
	b := NewStudy(StudyConfig{Chips: 60, Seed: 7})
	if a.Limits != b.Limits {
		t.Error("same seed produced different limits")
	}
	ta, tb := a.Table2(), b.Table2()
	if ta.BaseTotal != tb.BaseTotal {
		t.Error("same seed produced different loss totals")
	}
}

func TestTable2Shape(t *testing.T) {
	s := smallStudy(t)
	bd := s.Table2()
	if bd.N != 400 {
		t.Fatalf("N = %d", bd.N)
	}
	if bd.BaseTotal == 0 {
		t.Fatal("no base losses at nominal constraints — population or limits broken")
	}
	// Base loss fraction should be in the paper's neighbourhood (16.9%):
	// allow a wide band for the small population.
	frac := float64(bd.BaseTotal) / float64(bd.N)
	if frac < 0.08 || frac > 0.30 {
		t.Errorf("base loss fraction = %v, want roughly 0.17", frac)
	}
	if len(bd.Schemes) != 3 {
		t.Fatalf("expected YAPD/VACA/Hybrid columns, got %d", len(bd.Schemes))
	}
	yapd, vaca, hybrid := bd.Schemes[0], bd.Schemes[1], bd.Schemes[2]
	if yapd.Scheme != "YAPD" || vaca.Scheme != "VACA" || hybrid.Scheme != "Hybrid" {
		t.Fatalf("scheme order wrong: %s %s %s", yapd.Scheme, vaca.Scheme, hybrid.Scheme)
	}
	// The paper's structural facts: YAPD nullifies all 1-way delay
	// losses; VACA leaves all leakage losses; Hybrid loses no more than
	// either ingredient in any category.
	if yapd.ByReason[LossDelayWays(1)] != 0 {
		t.Error("YAPD should nullify single-way delay losses")
	}
	if vaca.ByReason[LossLeakageReason()] != bd.Base[LossLeakageReason()] {
		t.Error("VACA cannot fix leakage losses")
	}
	for _, r := range AllLossReasons() {
		if hybrid.ByReason[r] > yapd.ByReason[r] || hybrid.ByReason[r] > vaca.ByReason[r] {
			t.Errorf("Hybrid lost more than an ingredient in %v", r)
		}
	}
	if !(hybrid.Total <= yapd.Total && hybrid.Total <= vaca.Total) {
		t.Error("Hybrid should dominate both schemes in total")
	}
}

func TestTable3BaseWorseThanTable2(t *testing.T) {
	s := smallStudy(t)
	t2, t3 := s.Table2(), s.Table3()
	// The H-YAPD organisation pays 2.5% latency against the same limits,
	// so its base case must lose at least as many chips (Section 5.1).
	if t3.BaseTotal < t2.BaseTotal {
		t.Errorf("horizontal base losses (%d) below regular (%d)", t3.BaseTotal, t2.BaseTotal)
	}
	if t3.Schemes[2].Scheme != "Hybrid(H)" {
		t.Errorf("third column = %s", t3.Schemes[2].Scheme)
	}
	// H-YAPD nullifies the bulk (>=75%) of single-way delay losses.
	one := LossDelayWays(1)
	if base := t3.Base[one]; base > 0 {
		saved := base - t3.Schemes[0].ByReason[one]
		if float64(saved)/float64(base) < 0.75 {
			t.Errorf("H-YAPD saved only %d of %d single-way losses", saved, base)
		}
	}
}

func TestTables4And5Ordering(t *testing.T) {
	s := smallStudy(t)
	for _, rows := range [][]ConstraintTotals{s.Table4(), s.Table5()} {
		if len(rows) != 2 {
			t.Fatalf("want relaxed+strict rows, got %d", len(rows))
		}
		relaxed, strict := rows[0], rows[1]
		if relaxed.Constraint.Name != "relaxed" || strict.Constraint.Name != "strict" {
			t.Fatal("row order wrong")
		}
		if relaxed.Base >= strict.Base {
			t.Errorf("relaxed losses (%d) should be below strict (%d)", relaxed.Base, strict.Base)
		}
		for _, row := range rows {
			hybrid := row.Schemes[len(row.Schemes)-1]
			for _, sc := range row.Schemes {
				if hybrid.Total > sc.Total {
					t.Errorf("%s: Hybrid (%d) lost more than %s (%d)",
						row.Constraint.Name, hybrid.Total, sc.Scheme, sc.Total)
				}
			}
		}
	}
}

func TestFigure8Points(t *testing.T) {
	s := smallStudy(t)
	pts := s.Figure8()
	if len(pts) != 400 {
		t.Fatalf("points = %d", len(pts))
	}
	loss := 0
	for _, p := range pts {
		if p.Reason != LossNoneReason() {
			loss++
		}
	}
	bd := s.Table2()
	if loss != bd.BaseTotal {
		t.Errorf("scatter losses (%d) disagree with Table 2 (%d)", loss, bd.BaseTotal)
	}
	out := RenderFigure8(pts, 60, 20)
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "l") {
		t.Error("figure rendering incomplete")
	}
}

func TestRenderFigure8EmptyPopulation(t *testing.T) {
	// An empty population must render a clear placeholder, not panic or
	// divide by zero.
	out := RenderFigure8(nil, 72, 24)
	if !strings.Contains(out, "no data") {
		t.Errorf("empty Figure 8 should say 'no data':\n%s", out)
	}
	out = RenderFigure8([]ScatterPoint{}, 72, 24)
	if !strings.Contains(out, "no data") {
		t.Errorf("zero-point Figure 8 should say 'no data':\n%s", out)
	}
}

func TestSavedConfigurationsConsistentWithHybrid(t *testing.T) {
	s := smallStudy(t)
	rows := s.SavedConfigurations()
	total := 0
	for _, r := range rows {
		if r.Chips <= 0 {
			t.Errorf("row %+v has non-positive count", r.Key)
		}
		if r.Key.N4+r.Key.N5+r.Key.N6 != 4 {
			t.Errorf("row %+v does not describe 4 ways", r.Key)
		}
		total += r.Chips
	}
	bd := s.Table2()
	hybrid := bd.Schemes[2]
	if want := bd.BaseTotal - hybrid.Total; total != want {
		t.Errorf("saved-config total = %d, want base-hybrid losses %d", total, want)
	}
}

func TestRenderBreakdown(t *testing.T) {
	s := smallStudy(t)
	out := RenderBreakdown("Table 2", s.Table2())
	for _, want := range []string{"Leakage Constraint", "Delay Constraint (1 Way)", "Total", "YAPD", "VACA", "Hybrid"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
	tots := RenderTotals("Table 4", s.Table4())
	if !strings.Contains(tots, "relaxed") || !strings.Contains(tots, "strict") {
		t.Error("totals rendering incomplete")
	}
}
