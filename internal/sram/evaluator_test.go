package sram

import (
	"reflect"
	"testing"

	"yieldcache/internal/circuit"
	"yieldcache/internal/variation"
)

func evalFixture(hyapd bool) (*Model, *variation.Sampler) {
	return NewModel(circuit.PTM45(), hyapd), variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), 2006)
}

// TestEvaluatorMatchesTreeMeasure pins the value-typed kernel to the
// tree-based path: for both decoder organisations, Evaluator.Measure
// must reproduce Model.Measure(Node) field for field.
func TestEvaluatorMatchesTreeMeasure(t *testing.T) {
	for _, hyapd := range []bool{false, true} {
		m, s := evalFixture(hyapd)
		ev := m.NewEvaluator(s.NewScratch())
		var got CacheMeasurement
		for id := 0; id < 50; id++ {
			want := m.Measure(s.Chip(id))
			chip := ev.Scratch().Chip(id)
			ev.Measure(&chip, &got)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("hyapd=%v chip %d: evaluator diverges from tree measure\nwant %+v\ngot  %+v",
					hyapd, id, want, got)
			}
		}
	}
}

// TestMeasureZeroAlloc verifies the kernel's steady state never touches
// the heap: after the first measurement warms the destination, Measure
// is allocation-free for both organisations (H-YAPD derives from a
// regular lane kept in the pooled kernel scratch).
func TestMeasureZeroAlloc(t *testing.T) {
	m, s := evalFixture(false)
	mHor, _ := evalFixture(true)
	ev := m.NewEvaluator(s.NewScratch())
	evHor := mHor.NewEvaluator(s.NewScratch())
	var cm, hor CacheMeasurement
	chip := ev.Scratch().Chip(0)
	ev.Measure(&chip, &cm)
	evHor.Measure(&chip, &hor)

	id := 1
	if allocs := testing.AllocsPerRun(50, func() {
		chip := ev.Scratch().Chip(id)
		ev.Measure(&chip, &cm)
		id++
	}); allocs != 0 {
		t.Errorf("warm Measure allocates %.1f times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		chip := ev.Scratch().Chip(id)
		evHor.Measure(&chip, &hor)
		id++
	}); allocs != 0 {
		t.Errorf("warm H-YAPD Measure allocates %.1f times per run, want 0", allocs)
	}
}
