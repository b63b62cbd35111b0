package sram

import (
	"math"

	"yieldcache/internal/cpufeat"
)

// expCol and logCol are the kernel's only calls of math.Exp and
// math.Log. Each overwrites a column in place with the same bits the
// scalar call returns, lane by lane, and is the one place that chooses
// between the four-lane AVX2/FMA loops of vmath_amd64.s and the scalar
// call. The loops replay the instruction sequence of Go's amd64 archExp
// (its FMA path) and archLog on four lanes at once; each lane rounds
// as the scalar instruction does, so the results are identical.
//
// A loop handles a group of four lanes only when every lane stays on
// the scalar code's straight-line path: for exp, not NaN and |x| <= 708;
// for log, a positive, normal, finite value. Any other group, and the
// tail of a column that is not a multiple of four lanes, calls the
// scalar function. Nothing configures this: the loops run when the CPU
// and OS support AVX2 and FMA and the init cross-check passes.

// useVec reports that expCol and logCol take the vector loops: the
// platform supports them and they reproduced math.Exp and math.Log on
// every init probe.
var useVec = vecSupported() && vecAgrees()

// vecSupported reports that the CPU has AVX2 and FMA and that the OS
// saves the YMM state.
func vecSupported() bool { return cpufeat.AVX2() && cpufeat.FMA() }

// expCol sets xs[i] = math.Exp(xs[i]) for every lane.
func expCol(xs []float64) { mapCol(xs, expVec, math.Exp) }

// logCol sets xs[i] = math.Log(xs[i]) for every lane.
func logCol(xs []float64) { mapCol(xs, logVec, math.Log) }

// mapCol applies f to every lane of xs, taking vec for the groups of
// four it accepts. vec processes whole groups from the front and
// returns how many lanes it did; it stops short at the first group it
// declines, or with fewer than four lanes left.
func mapCol(xs []float64, vec func([]float64) int, f func(float64) float64) {
	i := 0
	if useVec {
		for {
			i += vec(xs[i:])
			if len(xs)-i < 4 {
				break
			}
			for end := i + 4; i < end; i++ {
				xs[i] = f(xs[i])
			}
		}
	}
	for ; i < len(xs); i++ {
		xs[i] = f(xs[i])
	}
}

// vecAgrees cross-checks the vector loops against math.Exp and math.Log
// on a fixed probe table: every probe lies on the loops' straight-line
// path, every group must be accepted, and every lane must match bit for
// bit. A mismatch (a platform whose math package takes another path)
// leaves the kernel on the scalar calls.
func vecAgrees() bool {
	exps, logs := vecProbes()
	return probeAgrees(exps, expVec, math.Exp) && probeAgrees(logs, logVec, math.Log)
}

func probeAgrees(probes []float64, vec func([]float64) int, f func(float64) float64) bool {
	col := append([]float64(nil), probes...)
	if vec(col) != len(col) {
		return false
	}
	for i, x := range probes {
		if math.Float64bits(col[i]) != math.Float64bits(f(x)) {
			return false
		}
	}
	return true
}

// vecProbes returns the init cross-check's exp and log inputs, each a
// whole number of four-lane groups: the edges of the straight-line
// domains, the rounding ties of both reductions, and a fixed
// pseudo-random spread over each domain.
func vecProbes() (exps, logs []float64) {
	exps = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 708, -708,
		math.Ln2 / 2, -math.Ln2 / 2, 1.5 * math.Ln2, 700.5 * math.Ln2,
		-1020.5 * math.Ln2, 1e-300, -1e-300, 0x1p-1074}
	logs = []float64{1, 2, 0.5, math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0),
		math.Nextafter(math.Sqrt2/2, 1), math.Sqrt2, 0x1p-1022, math.MaxFloat64,
		math.Nextafter(1, 2), math.Nextafter(1, 0), 3, 10, 1e-300, 1e300, 0.75}
	// f1 == √2/2 exactly, where archLog's not-less-than test halves f1:
	// the other branch differs from math.Log at some exponents only.
	for e := -1021; e <= 1024; e++ {
		logs = append(logs, math.Ldexp(math.Sqrt2/2, e))
	}
	logs = append(logs, 2, 4) // completes the last group of four
	s := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 64; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		u := float64(s>>11) / (1 << 53)
		exps = append(exps, 1416*u-708)
		logs = append(logs, math.Float64frombits(0x0010000000000000+s>>1%(0x7FF0000000000000-0x0010000000000000)))
	}
	return exps, logs
}
