package sram

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"yieldcache/internal/circuit"
	"yieldcache/internal/variation"
)

// powAlphas are the exponents the pow helper is pinned on: every case
// of pow's split (Sqrt, identity, yf in (0, 0.5], the yf > 0.5 shift,
// integers, yi = 2 with yf = 0.5), including every alpha the sweep
// tests use.
var powAlphas = []float64{0.5, 1, 1.1, 1.25, 1.3, 1.4, 1.5, 1.7, 2, 2.5}

// TestAlphaPowMatchesMathPow compares powCol with math.Pow on 10^7
// inputs per exponent across the kernel's domain — overdrive ratios
// (Vdd-Vt_eff)/(Vdd-VtNominal), which the Vt clamp keeps above 0.05 V
// of overdrive and the 3-sigma windows keep below about 2 — plus
// log-uniform spreads over the helper's fast range and over all finite
// positive floats, and the special inputs either side of the range.
// Columns of varying length mix the four-lane groups with scalar tails.
func TestAlphaPowMatchesMathPow(t *testing.T) {
	const n = 10_000_000
	special := []float64{1, 0x1p-1022, 0x1p-1074, 0x1p-1030, 0x1p500,
		powMinX, math.Nextafter(powMinX, 0), powMaxX, math.Nextafter(powMaxX, math.Inf(1)),
		0, math.Inf(1), math.NaN(), -1, -0.5, math.MaxFloat64}
	for i, alpha := range powAlphas {
		t.Run(fmt.Sprint(alpha), func(t *testing.T) {
			t.Parallel()
			ap := newAlphaPow(alpha)
			xs := make([]float64, 0, 1024)
			col, tmp := make([]float64, 1024), make([]float64, 1024)
			check := func() {
				col := col[:len(xs)]
				copy(col, xs)
				ap.powCol(col, tmp)
				for j, x := range xs {
					got, want := col[j], math.Pow(x, alpha)
					if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("powCol lane %x, %v = %x, math.Pow gives %x", x, alpha, got, want)
					}
				}
				xs = xs[:0]
			}
			xs = append(xs, special...)
			check()
			r := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < n; j++ {
				switch j % 8 {
				case 6:
					xs = append(xs, math.Exp2(2098*r.Float64()-1075))
				case 7:
					xs = append(xs, math.Exp2(200*r.Float64()-100))
				default:
					xs = append(xs, 0.02+2.5*r.Float64())
				}
				if len(xs) >= 1000+j%23 {
					check()
				}
			}
			check()
		})
	}
}

// TestAlphaPowSplit pins which exponents take the fast path.
func TestAlphaPowSplit(t *testing.T) {
	for _, c := range []struct {
		y      float64
		fast   bool
		yi     int
		yfSign int
	}{
		{0.5, false, 0, 0}, {1, true, 1, 0}, {1.3, true, 1, 1}, {1.5, true, 1, 1},
		{1.7, true, 2, -1}, {2, true, 2, 0}, {2.5, true, 2, 1}, {3.4, true, 3, 1},
		{3.6, false, 0, 0}, {0, false, 0, 0}, {-1.3, false, 0, 0}, {math.Inf(1), false, 0, 0},
		{math.NaN(), false, 0, 0},
	} {
		ap := newAlphaPow(c.y)
		sign := 0
		if ap.yf > 0 {
			sign = 1
		} else if ap.yf < 0 {
			sign = -1
		}
		if ap.fast != c.fast || (c.fast && (ap.yi != c.yi || sign != c.yfSign)) {
			t.Errorf("newAlphaPow(%v) = %+v, want fast=%v yi=%d sign(yf)=%d", c.y, ap, c.fast, c.yi, c.yfSign)
		}
	}
}

// marginTechs are technologies the kernel's sense margin is pinned on:
// every node of the scaling table, and PTM45 at every pinned alpha, so
// each case of pow's split runs.
func marginTechs() []circuit.Tech {
	var techs []circuit.Tech
	for _, node := range []int{90, 65, 45, 32} {
		t, err := circuit.TechAt(node)
		if err != nil {
			panic(err)
		}
		techs = append(techs, t)
	}
	for _, alpha := range powAlphas {
		t := circuit.PTM45()
		t.Alpha = alpha
		techs = append(techs, t)
	}
	return techs
}

// TestSenseMarginMatchesCircuit compares the kernel's margin column
// (fillMargin, with its pow through powCol) with circuit.SenseMargin on
// random sense-amp devices, on the exact corners DLeff == 0 and
// Vt_eff == VtNominal, and densely around drive == 1, where the
// margin's deficit changes sign.
func TestSenseMarginMatchesCircuit(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for _, tech := range marginTechs() {
		ap := newAlphaPow(tech.Alpha)
		var dls, vts []float64
		add := func(dl, vtv float64) {
			dls = append(dls, dl)
			vts = append(vts, vtv)
		}
		for i := 0; i < 50_000; i++ {
			dl := 0.6*r.Float64() - 0.3
			vtv := tech.VtNominal + 0.3*r.Float64() - 0.15
			add(dl, vtv)
			add(0, vtv)
			add(dl, tech.VtNominal-tech.DIBL*dl)
		}
		add(0, tech.VtNominal)
		add(math.Copysign(0, -1), tech.VtNominal)
		// Around drive == 1: DLeff a few ulps either side of 0, and
		// Vt_eff a few ulps either side of VtNominal.
		dl := math.Copysign(0, -1)
		for i := 0; i < 64; i++ {
			vt := tech.VtNominal
			for j := 0; j < 64; j++ {
				add(dl, vt)
				add(-dl, vt)
				add(dl, 2*tech.VtNominal-vt)
				vt = math.Nextafter(vt, 0)
			}
			dl = math.Nextafter(dl, -1)
		}
		// Far corners: the Vt clamp and gate lengths at and past -1.
		add(-0.5, tech.Vdd)
		add(-1, tech.VtNominal)
		add(math.Nextafter(-1, 0), tech.VtNominal)
		add(-1.5, tech.VtNominal)

		margin, tmp := make([]float64, len(dls)), make([]float64, len(dls))
		fillMargin(&tech, ap, dls, vts, margin, tmp)
		for i, got := range margin {
			want := circuit.SenseMargin(tech, circuit.Device{DLeff: dls[i], VtV: vts[i]})
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("alpha %v vdd %v: margin lane (%x, %x) = %v, circuit.SenseMargin gives %v",
					tech.Alpha, tech.Vdd, dls[i], vts[i], got, want)
			}
		}
	}
}

// TestBatchKernelMatchesReferenceAcrossTechs extends the kernel's
// scalar-reference parity (whose pows are math.Pow and whose margin is
// circuit.SenseMargin) to every technology node and every pinned alpha,
// so each pow split runs inside the kernel.
func TestBatchKernelMatchesReferenceAcrossTechs(t *testing.T) {
	s := variation.NewSampler(variation.Nassif45nm(), variation.PaperFactors(), 2006)
	ids := make([]int, 2*BatchWidth+3)
	for j := range ids {
		ids[j] = 100 + j
	}
	for _, tech := range marginTechs() {
		m := NewModel(tech, false)
		ev := m.NewEvaluator(s.NewScratch())
		ref := m.NewEvaluator(s.NewScratch())
		got := measViews(len(ids), m.Geom)
		measureBatch(ev, ids, got)
		for j, cid := range ids {
			chip := ref.Scratch().Chip(cid)
			var want CacheMeasurement
			ref.measureRef(&chip, &want, false)
			if !reflect.DeepEqual(want, *got[j]) {
				t.Fatalf("alpha %v vdd %v chip %d: batch kernel diverges from scalar reference",
					tech.Alpha, tech.Vdd, cid)
			}
		}
		ev.Release()
		ref.Release()
	}
}
