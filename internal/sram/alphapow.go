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

// pow returns math.Pow(x, p.y), bit for bit.
func (p alphaPow) pow(x float64) float64 {
	if !p.fast || !(x >= powMinX && x <= powMaxX) {
		return math.Pow(x, p.y)
	}
	a := 1.0
	if p.yf != 0 {
		a = math.Exp(p.yf * math.Log(x))
	}
	for i, xp := p.yi, x; i != 0; i >>= 1 {
		if i&1 == 1 {
			a *= xp
		}
		xp *= xp
	}
	return a
}

// senseMargin is circuit.SenseMargin for the device (dl, vtv) with the
// drive factor's pow taken by ap: the same expressions in the same
// order (EffectiveVt, DriveFactor, then circuit.MarginFromDrive), so
// the result is identical. shortcut (see marginShortcut) returns 1
// without the pow where the drive is provably >= 1.
func senseMargin(t *circuit.Tech, ap alphaPow, shortcut bool, dl, vtv float64) float64 {
	vt := vtv + t.DIBL*dl
	if maxVt := t.Vdd - 0.05; vt > maxVt {
		vt = maxVt
	}
	overdrive := t.Vdd - vt
	nominal := t.Vdd - t.VtNominal
	if shortcut && dl > -1 && dl <= 0 && overdrive >= nominal {
		return 1
	}
	return circuit.MarginFromDrive(t, (1/(1+dl))*ap.pow(overdrive/nominal))
}

// marginShortcut reports whether senseMargin may skip the pow when
// -1 < DLeff <= 0 and Vdd-Vt_eff >= Vdd-VtNominal. There 1/(1+DLeff) >= 1
// and the overdrive ratio r >= 1 (nominal > 0); for 1 < Alpha <= 1.5 pow
// takes yi = 1 and yf in (0, 0.5], so x^Alpha = Exp(yf*Log r) * r with
// both factors >= 1. The drive is then >= 1, the deficit <= 0, and the
// margin is exactly 1, as circuit.SenseMargin computes it. The shortcut
// takes about 13% of sense margins at PTM45 and 40% across the
// tech-node-scan sweep grid (EXPERIMENTS.md, "Per-chip hot path").
func marginShortcut(t circuit.Tech) bool {
	return t.Alpha > 1 && t.Alpha <= 1.5 && t.Vdd-t.VtNominal > 0
}
