// Package circuit is the analytical circuit-evaluation substrate that
// stands in for the paper's HSPICE + 45 nm PTM simulations.
//
// The yield study consumes exactly two scalars per cache way — access
// latency and leakage power — together with their sensitivities to the
// five process parameters of Table 1. This package provides those
// sensitivities from first-order device and interconnect physics:
//
//   - Gate delay from the alpha-power law: drive current of a MOSFET is
//     proportional to (W/L_eff)·(Vdd−Vt)^alpha, with a DIBL correction
//     that lowers the effective threshold of short-channel devices, and
//     gate load proportional to L_eff. Delay ∝ load/current.
//   - Subthreshold leakage exponential in −Vt_eff/(n·vT), again with the
//     DIBL shift, giving the heavy-tailed leakage distribution the paper
//     relies on (5–20x spreads inside the 3-sigma window).
//   - Interconnect RC from the geometric parameters: resistance
//     ∝ 1/(W·T); ground capacitance ∝ W/H; coupling capacitance to the
//     neighbouring line ∝ T/S where the spacing S shrinks as the line
//     width grows (line-space is not an independent parameter, exactly as
//     in Section 2 of the paper). Distributed-RC (Elmore) stage delays
//     scale with the R·C product.
//
// All evaluations are expressed as dimensionless factors relative to the
// nominal process corner, applied to nominal stage delays calibrated to
// an Amrutur–Horowitz-style 16 KB SRAM (see package sram). This keeps the
// substitution honest: the Monte Carlo distributions inherit the same
// monotone dependencies and the same correlation structure that the
// HSPICE model would produce, which is what Tables 2–5 and Figure 8
// measure.
package circuit

// Tech bundles the technology constants of the 45 nm operating point.
type Tech struct {
	Vdd        float64 // supply voltage, V
	VtNominal  float64 // nominal threshold voltage, V
	Alpha      float64 // alpha-power-law velocity-saturation exponent
	DIBL       float64 // Vt shift in V per unit fractional gate-length change
	SubVtSlope float64 // n·vT in V (subthreshold swing / ln 10)
	// CouplingFrac is the fraction of total wire capacitance contributed
	// by coupling to neighbouring lines at the nominal geometry. The rest
	// is area+fringe capacitance to the ground plane.
	CouplingFrac float64
	// DiffusionFrac is the fraction of bitline capacitance contributed by
	// the access-transistor drain diffusions (the rest is wire).
	DiffusionFrac float64
	// CellLeakage is the nominal subthreshold leakage of one SRAM cell in
	// watts; PeripheryLeakFrac is the additional leakage of decoder,
	// precharge, sense-amp and driver circuitry as a fraction of the
	// array leakage of a way.
	CellLeakage       float64
	PeripheryLeakFrac float64
	// SenseMarginGain models the super-linear slowdown of the
	// bitline/sense-amplifier stage at weak process corners: when the
	// cell's drive current drops, the differential the sense amp needs
	// takes disproportionately longer to develop (offset eats into the
	// signal margin). Delay is amplified by 1/(1 − gain·(1 − drive)),
	// capped at SenseMarginMax. This is the mechanism that gives the
	// latency distribution its fat right tail (the 5- and 6+-cycle ways
	// of Tables 2–6); a plain linear model would make 6+-cycle chips
	// essentially impossible, contradicting the paper's populations.
	SenseMarginGain float64
	SenseMarginMax  float64
}

// PTM45 returns the technology constants used throughout the study,
// matching a 45 nm predictive-technology high-performance process:
// 1.0 V supply, 220 mV nominal Vt, alpha = 1.3, a steep (near-ideal)
// subthreshold swing of ~60 mV/decade as used in high-performance
// low-Vt L1 arrays, and 55 mV of DIBL per 10% of channel-length loss —
// the strong short-channel sensitivity reported for sub-65 nm nodes
// (Section 1 cites 20x leakage increases at 90 nm and below; these
// constants reproduce multi-fold leakage spreads inside the 3-sigma
// window, which the 3x-average leakage constraint of Section 5.1 needs
// in order to bind on a measurable fraction of chips).
func PTM45() Tech {
	return Tech{
		Vdd:               1.0,
		VtNominal:         0.220,
		Alpha:             1.3,
		DIBL:              0.58,
		SubVtSlope:        0.027, // ~55 mV/dec / ln(10)
		CouplingFrac:      0.35,
		DiffusionFrac:     0.45,
		CellLeakage:       250e-9, // W per cell, array-dominated ~33 mW per 16 KB
		PeripheryLeakFrac: 0.25,
		SenseMarginGain:   3.0,
		SenseMarginMax:    5,
	}
}

// SenseMargin returns the bitline/sense stage delay amplification for a
// sense amplifier built from device sa: MarginFromDrive of its drive
// factor.
func SenseMargin(t Tech, sa Device) float64 {
	return MarginFromDrive(&t, sa.DriveFactor(t))
}

// MarginFromDrive returns the sense stage delay amplification for a
// sense amplifier of the given drive factor: 1/(1 − gain·(1 − drive)),
// capped at SenseMarginMax, and 1 for at- or above-nominal drive.
func MarginFromDrive(t *Tech, drive float64) float64 {
	deficit := 1 - drive
	if deficit <= 0 {
		return 1
	}
	den := 1 - t.SenseMarginGain*deficit
	if den <= 1/t.SenseMarginMax {
		return t.SenseMarginMax
	}
	return 1 / den
}
