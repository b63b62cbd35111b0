package sram

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestVecGate checks that a platform with AVX2 and FMA passes the init
// cross-check, so a broken vector loop cannot hide behind the scalar
// fallback.
func TestVecGate(t *testing.T) {
	if vecSupported() && !useVec {
		t.Fatal("AVX2/FMA present but the init cross-check against math.Exp/math.Log failed")
	}
	t.Logf("vector exp/log: %v", useVec)
}

// expProbes are exp inputs at the edges of its reduction and range:
// x·log2e at half-integer ties (and the floats either side), powers of
// two, ±0, subnormals, ±Inf, NaN, the straight-line limit ±708 and the
// overflow, denormal and underflow thresholds.
func expProbes() []float64 {
	xs := []float64{0, math.Copysign(0, -1), 0x1p-1074, -0x1p-1074, 0x1p-1022, 0x0.fffffffffffffp-1022,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xFFF8000000000001),
		708, -708, math.Nextafter(708, 709), math.Nextafter(-708, -709),
		math.Nextafter(708, 0), math.Nextafter(-708, 0),
		7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 710), 709.78, 710,
		-708.3964185322641, -708.4, -745.1332191019411, -745.1332191019412, -746, -1e300, 1e300}
	for e := -60; e <= 9; e++ {
		xs = append(xs, math.Ldexp(1, e), -math.Ldexp(1, e))
	}
	for k := -1021; k <= 1020; k += 7 {
		tie := float64(k) + 0.5
		x := tie * math.Ln2
		for i := 0; i < 64; i++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		for i := 0; i < 128; i++ {
			if x*math.Log2E == tie {
				xs = append(xs, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
			}
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	return xs
}

// logProbes are log inputs at the edges of its reduction and domain:
// mantissas f1 on both sides of √2/2 and at it, powers of two, ±0,
// subnormals, the smallest normal, the largest float, ±Inf, NaN and
// negatives.
func logProbes() []float64 {
	xs := []float64{0, math.Copysign(0, -1), 0x1p-1074, 0x0.fffffffffffffp-1022, 0x1p-1022,
		math.Nextafter(0x1p-1022, 1), math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xFFF8000000000001), -1, -0x1p-1074, 1, math.Nextafter(1, 2),
		math.Nextafter(1, 0), math.Sqrt2, math.E}
	h := math.Sqrt2 / 2
	for _, e := range []int{-1021, -500, -1, 0, 1, 2, 52, 500, 1024} {
		lo, hi := h, h
		xs = append(xs, math.Ldexp(h, e))
		for i := 0; i < 8; i++ {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
			xs = append(xs, math.Ldexp(lo, e), math.Ldexp(hi, e))
		}
	}
	for e := -1021; e <= 1024; e++ {
		xs = append(xs, math.Ldexp(h, e))
	}
	for e := -1074; e <= 1023; e += 3 {
		xs = append(xs, math.Ldexp(1, e))
	}
	return xs
}

// checkCol runs col through fn after a prefix of pad lanes, so that
// each probe meets every lane position of the four-lane groups, and
// compares every lane with want bit for bit.
func checkCol(t *testing.T, name string, probes []float64, fn func([]float64), want func(float64) float64) {
	t.Helper()
	for pad := 0; pad < 4; pad++ {
		col := make([]float64, pad, pad+len(probes))
		for i := range col {
			col[i] = 0.75
		}
		col = append(col, probes...)
		fn(col)
		for i, x := range probes {
			got, w := col[pad+i], want(x)
			if math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%s(%x) at lane %d = %x, want %x", name, x, pad+i, got, w)
			}
		}
	}
}

// TestVecMathEdgeProbes checks expCol and logCol, and the vector loops
// on their own over the probes they accept, against math.Exp and
// math.Log on the edge probes.
func TestVecMathEdgeProbes(t *testing.T) {
	exps, logs := expProbes(), logProbes()
	checkCol(t, "expCol", exps, expCol, math.Exp)
	checkCol(t, "logCol", logs, logCol, math.Log)
	if !vecSupported() {
		t.Skip("no AVX2/FMA: the vector loops are not run on their own")
	}
	var expIn, logIn []float64
	for _, x := range exps {
		if math.Abs(x) <= 708 {
			expIn = append(expIn, x)
		}
	}
	for _, x := range logs {
		if x >= 0x1p-1022 && x <= math.MaxFloat64 {
			logIn = append(logIn, x)
		}
	}
	// The loop must take every whole group; the tail lanes past them
	// get the scalar call.
	vec := func(loop func([]float64) int, scalar func(float64) float64) func([]float64) {
		return func(xs []float64) {
			n := loop(xs)
			if n != len(xs)&^3 {
				t.Fatalf("vector loop did %d of %d in-domain lanes", n, len(xs))
			}
			for i := n; i < len(xs); i++ {
				xs[i] = scalar(xs[i])
			}
		}
	}
	checkCol(t, "expVec", expIn, vec(expVec, math.Exp), math.Exp)
	checkCol(t, "logVec", logIn, vec(logVec, math.Log), math.Log)
}

// FuzzVecMath feeds arbitrary float64 bit patterns, in columns of 0 to
// 13 lanes, through expCol and logCol: every lane must equal math.Exp
// and math.Log of it bit for bit.
func FuzzVecMath(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(seed(1, 2, 3, 4))
	f.Add(seed(0.5, -0.25, 708, -708, math.NaN(), 1e-3, 7))
	f.Add(seed(math.Sqrt2/2, 0x1p-1022, 0x1p-1074, math.Inf(1), -1, 0, 3, 4, 5, 6, 7, 8, 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/8, 13)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		ex := append([]float64(nil), xs...)
		expCol(ex)
		lg := append([]float64(nil), xs...)
		logCol(lg)
		for i, x := range xs {
			if math.Float64bits(ex[i]) != math.Float64bits(math.Exp(x)) {
				t.Fatalf("expCol lane %d of %d: exp(%x) = %x, math.Exp gives %x", i, n, x, ex[i], math.Exp(x))
			}
			if math.Float64bits(lg[i]) != math.Float64bits(math.Log(x)) {
				t.Fatalf("logCol lane %d of %d: log(%x) = %x, math.Log gives %x", i, n, x, lg[i], math.Log(x))
			}
		}
	})
}
