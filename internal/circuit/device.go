package circuit

import (
	"math"

	"yieldcache/internal/variation"
)

// Device captures the process state of the MOSFETs in one circuit region:
// the fractional gate-length deviation and the absolute sampled threshold
// voltage. Gate-width variation is not modelled, following the paper
// (W_gate >> L_gate in the cache's sized transistors).
type Device struct {
	DLeff float64 // (L - Lnom) / Lnom
	VtV   float64 // sampled threshold voltage, V (before DIBL correction)
}

// DeviceOf extracts the device state from sampled parameter values under
// the given process spec.
func DeviceOf(v *variation.Values, spec *variation.Spec) Device {
	return Device{
		DLeff: spec.DeltaOf(variation.Leff, v[variation.Leff]),
		VtV:   v[variation.Vt] / 1000, // mV -> V
	}
}

// EffectiveVt returns the DIBL-corrected threshold voltage: shorter
// channels see a lower barrier, so Vt_eff = Vt + DIBL·ΔL/L (the shift is
// negative for short devices). The result is clamped to stay below Vdd
// so delay remains finite even at absurd corners.
func (d Device) EffectiveVt(t Tech) float64 {
	vt := d.VtV + t.DIBL*d.DLeff
	if max := t.Vdd - 0.05; vt > max {
		vt = max
	}
	return vt
}

// DriveFactor returns the saturation drive current relative to the
// nominal device: I ∝ (1/L)·(Vdd − Vt_eff)^alpha.
func (d Device) DriveFactor(t Tech) float64 {
	overdrive := t.Vdd - d.EffectiveVt(t)
	nominal := t.Vdd - t.VtNominal
	return (1 / (1 + d.DLeff)) * math.Pow(overdrive/nominal, t.Alpha)
}

// GateDelayFactor returns the delay of a logic stage relative to nominal.
// A stage drives the next stage's gate capacitance (proportional to
// L_eff) plus local wiring whose capacitance does not track L, so the
// load scales as (1 + DLeff/2) and delay ∝ load / drive current.
func (d Device) GateDelayFactor(t Tech) float64 {
	return (1 + 0.5*d.DLeff) / d.DriveFactor(t)
}

// LeakageFactor returns the subthreshold leakage relative to the nominal
// device: I_sub ∝ (1/L)·exp(−Vt_eff / (n·vT)). The exponential in the
// DIBL-shifted threshold is what produces the multi-fold leakage spreads
// (and the inverse delay↔leakage correlation: fast devices leak).
func (d Device) LeakageFactor(t Tech) float64 {
	dvt := d.EffectiveVt(t) - t.VtNominal
	return (1 / (1 + d.DLeff)) * math.Exp(-dvt/t.SubVtSlope)
}

// Wire captures the process state of the interconnect in one region as
// fractional deviations of the Table 1 geometry.
type Wire struct {
	DW float64 // line width
	DT float64 // metal thickness
	DH float64 // inter-layer dielectric thickness
}

// WireOf extracts the interconnect state from sampled parameter values
// under the given process spec.
func WireOf(v *variation.Values, spec *variation.Spec) Wire {
	return Wire{
		DW: spec.DeltaOf(variation.W, v[variation.W]),
		DT: spec.DeltaOf(variation.T, v[variation.T]),
		DH: spec.DeltaOf(variation.H, v[variation.H]),
	}
}

// ResFactor returns wire resistance relative to nominal: R ∝ 1/(W·T).
func (w Wire) ResFactor() float64 {
	return 1 / ((1 + w.DW) * (1 + w.DT))
}

// CapFactor returns total wire capacitance relative to nominal. Ground
// (area) capacitance scales as W/H; coupling capacitance to the adjacent
// line scales as T/S, with the spacing S = pitch − W shrinking when the
// line widens (at nominal geometry S equals W, so S/S0 = 1 − DW). The
// two components are blended with the technology's nominal coupling
// fraction. This is where the paper's explicitly-added coupling
// capacitances (address bus, decoder wires, bitline pairs) enter the
// model.
func (w Wire) CapFactor(t Tech) float64 {
	ground := (1 + w.DW) / (1 + w.DH)
	spacing := 1 - w.DW
	if spacing < 0.05 {
		spacing = 0.05 // a 33% 3-sigma window cannot close the gap, but stay safe
	}
	coupling := (1 + w.DT) / spacing
	return (1-t.CouplingFrac)*ground + t.CouplingFrac*coupling
}

// RCFactor returns the distributed-RC (Elmore) delay of a wire segment
// relative to nominal; for a wire-dominated stage the delay scales with
// the R·C product.
func (w Wire) RCFactor(t Tech) float64 {
	return w.ResFactor() * w.CapFactor(t)
}
