package sram

import (
	"math"

	"yieldcache/internal/circuit"
)

// alphaPow evaluates x^Alpha bit-identically to math.Pow(x, Alpha) for
// the kernel's alpha-power drive factors, without pow's per-call
// special-case tests, Modf, Frexp and Ldexp. math.Pow splits y into
// yi + yf (shifting yf into [-0.5, 0.5] when it exceeds 0.5), computes
// a1 = Exp(yf*Log(x)), then multiplies a1 by x^(2^b) for each set bit b
// of yi, lowest bit first, on a frexp-normalised mantissa with the
// powers of two kept aside and applied once by Ldexp at the end. Scaling
// by a power of two commutes with rounding while every value stays
// normal, so the same multiplications on x itself round identically.
// The split is done once per evaluator; lanes outside the domain where
// that holds fall back to math.Pow.
type alphaPow struct {
	y    float64 // the exponent, Alpha
	yf   float64 // fractional part after pow's shift, in [-0.5, 0.5]
	yi   int     // integer part after pow's shift
	fast bool    // false: every lane calls math.Pow
}

// Inputs in [powMinX, powMaxX] keep every intermediate of the fast path
// normal and finite: with yi <= powMaxYi the largest power formed is
// x^4 and the result lies within x^±3.5.
const (
	powMinX  = 0x1p-100
	powMaxX  = 0x1p100
	powMaxYi = 3
)

func newAlphaPow(y float64) alphaPow {
	p := alphaPow{y: y}
	// Pow's special cases: y == 0 and y == 0.5 (Sqrt) have their own
	// code, and negative, infinite or NaN exponents are not specialised.
	if !(y > 0) || y == 0.5 || math.IsInf(y, 1) {
		return p
	}
	yi, yf := math.Modf(y)
	if yf > 0.5 {
		yf--
		yi++
	}
	if yi > powMaxYi {
		return p
	}
	p.yi, p.yf, p.fast = int(yi), yf, true
	return p
}

// powCol overwrites every lane x of xs with math.Pow(x, p.y), bit for
// bit, using tmp (at least len(xs) lanes) as scratch. The fast split
// takes one logCol and one expCol for the whole column, then multiplies
// each lane by x^yi in pow's order.
func (p alphaPow) powCol(xs, tmp []float64) {
	if !p.fast {
		for i, x := range xs {
			xs[i] = math.Pow(x, p.y)
		}
		return
	}
	a := tmp[:len(xs)]
	if p.yf != 0 {
		for i, x := range xs {
			if !(x >= powMinX && x <= powMaxX) {
				x = 1 // the lane finishes with math.Pow below
			}
			a[i] = x
		}
		logCol(a)
		for i, lx := range a {
			a[i] = p.yf * lx
		}
		expCol(a)
	} else {
		for i := range a {
			a[i] = 1
		}
	}
	for i, x := range xs {
		if !(x >= powMinX && x <= powMaxX) {
			xs[i] = math.Pow(x, p.y)
			continue
		}
		ai := a[i]
		for k, xp := p.yi, x; k != 0; k >>= 1 {
			if k&1 == 1 {
				ai *= xp
			}
			xp *= xp
		}
		xs[i] = ai
	}
}

// fillMargin derives the sense-margin column of the sense-amp devices
// (dl, vtv), matching circuit.SenseMargin lane-wise: the same
// expressions in the same order (EffectiveVt, DriveFactor with its pow
// through powCol, then circuit.MarginFromDrive). tmp is powCol's
// scratch.
func fillMargin(t *circuit.Tech, ap alphaPow, dl, vtv, margin, tmp []float64) {
	nominal := t.Vdd - t.VtNominal
	maxVt := t.Vdd - 0.05
	for l := range margin {
		vt := vtv[l] + t.DIBL*dl[l]
		if vt > maxVt {
			vt = maxVt
		}
		margin[l] = (t.Vdd - vt) / nominal
	}
	ap.powCol(margin, tmp)
	for l, x := range margin {
		margin[l] = circuit.MarginFromDrive(t, (1/(1+dl[l]))*x)
	}
}
