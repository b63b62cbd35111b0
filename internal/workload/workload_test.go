package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSuiteComposition(t *testing.T) {
	suite := SPEC2000()
	if len(suite) != 24 {
		t.Fatalf("suite has %d benchmarks, want 24", len(suite))
	}
	ints, fps := 0, 0
	seen := map[string]bool{}
	for _, p := range suite {
		if seen[p.Name] {
			t.Errorf("duplicate benchmark %q", p.Name)
		}
		seen[p.Name] = true
		switch p.Class {
		case Integer:
			ints++
		case FloatingPoint:
			fps++
		}
	}
	if ints != 11 || fps != 13 {
		t.Errorf("suite split = %d INT + %d FP, want 11 + 13 (Section 5.2)", ints, fps)
	}
}

func TestProfileFractionsSane(t *testing.T) {
	for _, p := range SPEC2000() {
		sum := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac + p.MulFrac + p.DivFrac
		if sum >= 1 {
			t.Errorf("%s: instruction-mix fractions sum to %v >= 1", p.Name, sum)
		}
		if p.LoadFrac <= 0 || p.HotSetKB <= 0 || p.WorkingSetKB <= 0 || p.CodeKB <= 0 {
			t.Errorf("%s: degenerate profile %+v", p.Name, p)
		}
		if p.HotSetKB > 16 {
			t.Errorf("%s: hot set %dKB exceeds the 16KB L1", p.Name, p.HotSetKB)
		}
		if p.StrideFrac < 0 || p.StrideFrac > 1 || p.HotFrac < 0 || p.HotFrac > 1 {
			t.Errorf("%s: locality fractions out of range", p.Name)
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	if _, ok := ByName("mcf"); !ok {
		t.Error("mcf missing")
	}
	if _, ok := ByName("doom"); ok {
		t.Error("unknown benchmark found")
	}
	if len(Names()) != 24 {
		t.Error("Names() length wrong")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("gcc")
	a := NewGenerator(p, 42)
	b := NewGenerator(p, 42)
	for i := 0; i < 10000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestGeneratorMixConverges(t *testing.T) {
	p, _ := ByName("swim")
	g := NewGenerator(p, 7)
	n := 200000
	counts := make([]int, NumOpClasses)
	for i := 0; i < n; i++ {
		counts[g.Next().Op]++
	}
	loadFrac := float64(counts[Load]) / float64(n)
	if math.Abs(loadFrac-p.LoadFrac) > 0.01 {
		t.Errorf("load fraction = %v, want ~%v", loadFrac, p.LoadFrac)
	}
	storeFrac := float64(counts[Store]) / float64(n)
	if math.Abs(storeFrac-p.StoreFrac) > 0.01 {
		t.Errorf("store fraction = %v, want ~%v", storeFrac, p.StoreFrac)
	}
	if counts[FMul] == 0 || counts[FAdd] == 0 {
		t.Error("FP benchmark generated no FP ops")
	}
	if counts[IMul] != 0 {
		t.Error("FP benchmark should map multiplies to FMul")
	}
}

func TestIntegerBenchmarkHasNoFP(t *testing.T) {
	p, _ := ByName("gzip")
	g := NewGenerator(p, 3)
	for i := 0; i < 50000; i++ {
		in := g.Next()
		if in.Op == FAdd || in.Op == FMul || in.Op == FDiv {
			t.Fatalf("integer benchmark generated %v", in.Op)
		}
	}
}

func TestAddressesStayInRegions(t *testing.T) {
	p, _ := ByName("mcf")
	g := NewGenerator(p, 11)
	for i := 0; i < 100000; i++ {
		in := g.Next()
		switch in.Op {
		case Load, Store:
			if in.Addr == 0 {
				t.Fatal("memory op without address")
			}
			if in.Addr%8 != 0 {
				t.Fatalf("unaligned synthetic address %#x", in.Addr)
			}
			if in.Addr < hotRegion {
				t.Fatalf("data address %#x collides with code region", in.Addr)
			}
		default:
			if in.Addr != 0 {
				t.Fatalf("%v carries a data address", in.Op)
			}
		}
		if in.PC < codeRegion || in.PC >= hotRegion {
			t.Fatalf("PC %#x outside code region", in.PC)
		}
		if in.PC%4 != 0 {
			t.Fatalf("unaligned PC %#x", in.PC)
		}
	}
}

func TestDependenceDistances(t *testing.T) {
	p, _ := ByName("mcf") // tight chains: DepGeomP = 0.5
	g := NewGenerator(p, 5)
	n := 100000
	sum, withSecond := 0, 0
	for i := 0; i < n; i++ {
		in := g.Next()
		if in.Src1Dist < 1 {
			t.Fatal("Src1Dist must be at least 1")
		}
		sum += in.Src1Dist
		if in.Src2Dist > 0 {
			withSecond++
		}
	}
	mean := float64(sum) / float64(n)
	want := 1 + (1-p.DepGeomP)/p.DepGeomP // mean of 1+Geom(p)
	if math.Abs(mean-want) > 0.1 {
		t.Errorf("mean dependence distance = %v, want ~%v", mean, want)
	}
	frac := float64(withSecond) / float64(n)
	if math.Abs(frac-p.SecondSrcProb) > 0.01 {
		t.Errorf("second-source fraction = %v, want ~%v", frac, p.SecondSrcProb)
	}
}

func TestMemoryIntensityOrdering(t *testing.T) {
	// The suite must span the memory-boundedness range the paper's
	// figures rely on: mcf's cold fraction far above eon's.
	cold := func(name string) float64 {
		p, _ := ByName(name)
		return (1 - p.StrideFrac) * (1 - p.HotFrac)
	}
	if !(cold("mcf") > 5*cold("eon")) {
		t.Errorf("mcf cold fraction (%v) should dwarf eon's (%v)", cold("mcf"), cold("eon"))
	}
	if !(cold("art") > cold("mesa")) {
		t.Errorf("art (%v) should be more memory-bound than mesa (%v)", cold("art"), cold("mesa"))
	}
}

func TestBranchBehaviour(t *testing.T) {
	p, _ := ByName("gcc")
	g := NewGenerator(p, 13)
	n := 200000
	branches, mispred := 0, 0
	for i := 0; i < n; i++ {
		in := g.Next()
		if in.Op == Branch {
			branches++
			if in.Mispredicted {
				mispred++
			}
		} else if in.Mispredicted || in.Taken {
			t.Fatal("non-branch carries branch outcome")
		}
	}
	if branches == 0 {
		t.Fatal("no branches generated")
	}
	rate := float64(mispred) / float64(branches)
	if math.Abs(rate-p.MispredictRate) > 0.01 {
		t.Errorf("mispredict rate = %v, want ~%v", rate, p.MispredictRate)
	}
}

// Property: any profile from the suite with any seed generates valid
// instructions (op in range, distances positive, loads/stores addressed).
func TestGeneratorValidityProperty(t *testing.T) {
	suite := SPEC2000()
	f := func(seed int64, pick uint8, steps uint16) bool {
		p := suite[int(pick)%len(suite)]
		g := NewGenerator(p, seed)
		n := int(steps%2000) + 1
		for i := 0; i < n; i++ {
			in := g.Next()
			if in.Op < 0 || in.Op >= NumOpClasses {
				return false
			}
			if in.Src1Dist < 1 {
				return false
			}
			if (in.Op == Load || in.Op == Store) == (in.Addr == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
