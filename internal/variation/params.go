// Package variation models process variations for the yield study.
//
// It implements the sampling scheme of Section 3 of the paper: five
// variation sources (gate length, threshold voltage, metal width, metal
// thickness, inter-layer-dielectric thickness) drawn inside the 3-sigma
// windows published by Nassif for a 45 nm process (Table 1), with spatial
// correlation expressed through the paper's "correlation factors".
//
// A correlation factor is a number in (0, 1]. Given a parent region whose
// parameters are already drawn, a child region redraws each parameter
// with the parent's value as the new mean and the Table 1 variation range
// scaled by the factor. A *small* factor therefore means the child tracks
// the parent closely (strong correlation) — note this is the opposite
// sense of a correlation coefficient, as the paper points out.
package variation

import "fmt"

// Param identifies one source of process variation.
type Param int

// The five variation sources of Table 1.
const (
	Leff Param = iota // effective gate length, nm
	Vt                // threshold voltage, mV
	W                 // metal line width, um
	T                 // metal thickness, um
	H                 // inter-layer dielectric thickness, um
	NumParams
)

var paramNames = [NumParams]string{"Leff", "Vt", "W", "T", "H"}

func (p Param) String() string {
	if p < 0 || p >= NumParams {
		return fmt.Sprintf("Param(%d)", int(p))
	}
	return paramNames[p]
}

// Values holds one value per variation source, in the units of Table 1
// (Leff in nm, Vt in mV, W/T/H in um).
type Values [NumParams]float64

// Spec describes the nominal value and the 3-sigma variation (as a
// fraction of nominal) for each source.
type Spec struct {
	Nominal   Values
	Sigma3Pct Values // 3-sigma variation in percent of nominal
}

// Nassif45nm returns the Table 1 process specification: 45 nm PTM nominal
// values with Nassif's variation limits.
func Nassif45nm() Spec {
	return Spec{
		Nominal: Values{
			Leff: 45,   // nm
			Vt:   220,  // mV
			W:    0.25, // um
			T:    0.55, // um
			H:    0.15, // um
		},
		Sigma3Pct: Values{
			Leff: 10,
			Vt:   18,
			W:    33,
			T:    33,
			H:    35,
		},
	}
}

// Sigma returns the 1-sigma absolute deviation of parameter p.
func (s Spec) Sigma(p Param) float64 {
	return s.Nominal[p] * s.Sigma3Pct[p] / 100 / 3
}

// Bound returns the 3-sigma absolute deviation (the hard sampling window
// half-width) of parameter p.
func (s Spec) Bound(p Param) float64 {
	return s.Nominal[p] * s.Sigma3Pct[p] / 100
}

// DeltaOf returns the fractional deviation of value from p's nominal:
// (value - nominal) / nominal, or 0 when the nominal is zero.
func (s *Spec) DeltaOf(p Param, value float64) float64 {
	nom := s.Nominal[p]
	if nom == 0 {
		return 0
	}
	return (value - nom) / nom
}

// Factors holds the spatial correlation factors of Section 3. They scale
// the Table 1 range when a child region is drawn around its parent.
// Section 3's bit factor (0.01) has no field: the model stops at rows.
type Factors struct {
	Row         float64 // between rows of a bank
	Block       float64 // between circuit blocks of one way (decoder, precharge, cells, sense amps, drivers)
	VerticalWay float64 // way sharing a vertical mesh edge with way 0
	HorizWay    float64 // way sharing a horizontal mesh edge with way 0
	DiagWay     float64 // way diagonal to way 0 on the 2x2 mesh
}

// PaperFactors returns the correlation factors used in the paper,
// derived from the Friedberg et al. spatial-correlation data. The paper
// does not publish a separate factor for circuit blocks inside a way; we
// reuse the row factor, since the blocks of one way are physically
// adjacent at row scale.
func PaperFactors() Factors {
	return Factors{
		Row:         0.05,
		Block:       0.05,
		VerticalWay: 0.45,
		HorizWay:    0.375,
		DiagWay:     0.7125,
	}
}

// WayFactor returns the correlation factor between way 0 and way i for
// ways laid out on a 2x2 mesh:
//
//	way 0 | way 1      (way 1 shares the horizontal line with way 0)
//	------+------
//	way 2 | way 3      (way 2 the vertical line, way 3 the diagonal)
//
// Way 0 is the reference and has factor 0 (identical parameters).
func (f Factors) WayFactor(i int) float64 {
	switch i {
	case 0:
		return 0
	case 1:
		return f.HorizWay
	case 2:
		return f.VerticalWay
	case 3:
		return f.DiagWay
	default:
		panic(fmt.Sprintf("variation: way index %d outside 2x2 mesh", i))
	}
}
