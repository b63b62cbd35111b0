package stats

import (
	"math"
	"math/rand"
)

// Batched draw generation for the structure-of-arrays measurement
// kernel. The Monte Carlo variation model draws one short stream per
// region node (a handful of truncated normals), and the O(1) seed-jump
// Reseed makes repositioning the generator between nodes free — so the
// natural batch primitive is "for each seed, reseed and draw one value
// per column". Layouts are column-major: cols[k][l] is column k of lane
// l, matching variation.Batch, so the per-column sigma/bound lookups
// hoist out of the lane loop and the inner loop is straight-line code
// over flat float64 slices.
//
// Speculation. Every column of a lane reads one draw when that draw
// takes the ziggurat's fast strip (about 99% of draws) and lands inside
// the truncation bound. Under that assumption column k of every lane
// reads draw k of its stream, which inside the lazy window is the pure
// function entry(333-k) + entry(606-k) of the lane's seed (fastseed.go).
// So the sampler computes column after column for a chunk of lanes in
// straight-line loops, with no generator state and no interface calls,
// and records per lane the first column whose draw broke the
// assumption. Fallback rule: such a lane is resumed on the exact scalar
// path at that draw — reseed, set the lazy source's position to k (the
// k draws its accepted columns consumed), then TruncNormal for column
// k. Each later column first tries the fast strip again at the
// source's position (rejoinTruncNormal) and runs TruncNormal from that
// same draw when it fails, so the slow strips, the tail, rejections
// and the uniform fallback all run on math/rand's own code. A lane's
// columns are written only while the assumption holds, and the value
// in a column is its draw's mean, so a resumed lane sees exactly the
// inputs the scalar loop would.

const (
	// specLanes is the lane chunk of the speculative sampler: its per-lane
	// state (seed and first failing column) lives in fixed stack arrays.
	specLanes = 64
	// specCols is the widest batch the speculative sampler takes; wider
	// ones use the scalar loop. It stays far inside the lazy window.
	specCols = 8
)

// columnsOK reports that the O(1) source is active and the copied
// ziggurat tables match math/rand; it gates the speculative path. The
// sampler's own code is pinned against stock math/rand by the
// package's differential tests.
var columnsOK bool

// vecStep reports that the speculative sampler runs its column step
// four lanes at a time (stepCol): the CPU and OS support AVX2 and the
// loop reproduced the scalar step on every init probe. Nothing else
// configures it.
var vecStep bool

// TruncNormalColumns draws, for each lane l, one truncated normal per
// column: the generator is repositioned to seeds[l], then cols[k][l] is
// overwritten, in ascending k, with TruncNormal(cols[k][l], sigma[k],
// bound[k]) — the value already in the column is the mean of the draw.
// The per-lane draw sequence is bit-identical to Reseed(seeds[l])
// followed by k sequential TruncNormal calls, so a batched caller
// reproduces the scalar sampling stream exactly. len(cols), len(sigma)
// and len(bound) must agree; every column must have at least len(seeds)
// entries.
//
// Lanes are sampled speculatively (see the file comment), so the
// generator's seed and position after the call are unspecified: reseed
// before drawing from it again. Batches wider than specCols, or with a
// sigma or bound <= 0 in any column, take the plain per-lane loop.
func (g *RNG) TruncNormalColumns(seeds []int64, cols [][]float64, sigma, bound []float64) {
	if columnsOK && g.fsrc != nil && speculable(sigma, bound) {
		g.speculateColumns(seeds, cols, sigma, bound, vecStep)
		return
	}
	for l, seed := range seeds {
		g.Reseed(seed)
		for k := range cols {
			cols[k][l] = g.TruncNormal(cols[k][l], sigma[k], bound[k])
		}
	}
}

// speculable reports whether the speculative sampler takes a batch of
// these columns: at most specCols of them, every one with a positive
// sigma and bound (TruncNormal returns the mean without drawing
// otherwise, which the one-draw-per-column assumption cannot express).
func speculable(sigma, bound []float64) bool {
	if len(sigma) > specCols {
		return false
	}
	for k := range sigma {
		if sigma[k] <= 0 || bound[k] <= 0 {
			return false
		}
	}
	return true
}

// speculateColumns is TruncNormalColumns for a speculable batch on the
// O(1) source: speculative column steps per chunk of specLanes lanes,
// then the exact scalar path for every lane whose speculation failed.
// vec selects the four-lane column step (stepCol); the result is the
// same either way.
func (g *RNG) speculateColumns(seeds []int64, cols [][]float64, sigma, bound []float64, vec bool) {
	nc := len(cols)
	var x0 [specLanes]uint64
	var fail [specLanes]uint8 // first column not drawn speculatively; nc when none
	for start := 0; start < len(seeds); start += specLanes {
		chunk := seeds[start:min(start+specLanes, len(seeds))]
		xs, fs := x0[:len(chunk)], fail[:len(chunk)]
		for l, seed := range chunk {
			xs[l] = normSeed(seed)
			fs[l] = uint8(nc)
		}
		for k := range cols {
			stepCol(xs, cols[k][start:start+len(xs)], fs, k, sigma[k], bound[k], vec)
		}
		for l, seed := range chunk {
			k := int(fs[l])
			if k == nc {
				continue
			}
			// Resume at draw k: a lazy source's state is (seed, draws).
			// Column k runs the exact TruncNormal; every later column
			// first tries the fast strip at the source's position.
			i := start + l
			g.Reseed(seed)
			g.fsrc.drawn = k
			cols[k][i] = g.TruncNormal(cols[k][i], sigma[k], bound[k])
			for k++; k < nc; k++ {
				cols[k][i] = g.rejoinTruncNormal(cols[k][i], sigma[k], bound[k])
			}
		}
	}
}

// rejoinTruncNormal is TruncNormal(mean, s, b) for a resumed lane on
// the O(1) source: while the source is lazy it computes the next draw's
// word itself and, when that draw takes the fast strip and lands inside
// the bound, returns mean+v and advances the source by that one draw.
// Any other draw leaves the source where it was and runs TruncNormal,
// whose 64 tries then start at that same draw, as they would on the
// scalar path.
func (g *RNG) rejoinTruncNormal(mean, s, b float64) float64 {
	src := g.fsrc
	if d := src.drawn; src.lazy && d < rngTap {
		if v, ok := fastStrip(src.lazyWord(d), s, b); ok {
			src.drawn++
			return mean + v
		}
	}
	return g.TruncNormal(mean, s, b)
}

// fastStrip evaluates the draw whose source word is x as TruncNormal
// would with sigma s and bound b, as far as the ziggurat's fast strip
// goes: v is s*NormFloat64() for that draw, and ok reports that the
// draw took the fast strip (rand.Rand.NormFloat64 on Uint32() =
// uint32(Int63() >> 31)) and that v passed the bound test.
func fastStrip(x int64, s, b float64) (v float64, ok bool) {
	j := int32(uint32(uint64(x) & rngMask >> 31))
	i := j & 0x7F
	v = s * (float64(j) * float64(wn[i]))
	return v, absInt32(j) < kn[i] && v >= -b && v <= b
}

// stepCol draws column k of a chunk speculatively: for every lane l
// still live (fs[l] > k) it computes draw k's word, the sum of the
// seeded entries 333-k (feed) and 606-k (tap) of the normalized seed
// xs[l], and either adds the draw's value to col[l] (fastStrip
// accepts it) or sets fs[l] = k. With vec set, whole groups of four
// lanes go to the AVX2 loop stepVec; the tail, and every lane without
// vec, run the scalar body below. Both do the same exact integer
// arithmetic and the same IEEE multiplies and compares, and both write
// a rejected lane's column not at all, so the results are identical.
func stepCol(xs []uint64, col []float64, fs []uint8, k int, s, b float64, vec bool) {
	f, t := rngLen-rngTap-1-k, rngLen-1-k
	jf, jt, cf, ct := lcgJump[f], lcgJump[t], rngCooked[f], rngCooked[t]
	n := 0
	if vec {
		n = stepVec(xs, col, fs, k, jf, jt, cf, ct, s, b)
	}
	for l := n; l < len(xs); l++ {
		if int(fs[l]) <= k {
			continue
		}
		// seedEntry(x0, jf, cf) + seedEntry(x0, jt, ct), written out:
		// the two Lehmer chains are independent, so their steps overlap.
		x0 := xs[l]
		a, c := modM(x0*jf), modM(x0*jt)
		ua, uc := int64(a)<<40, int64(c)<<40
		a, c = modM(a*lcgA), modM(c*lcgA)
		ua, uc = ua^int64(a)<<20, uc^int64(c)<<20
		a, c = modM(a*lcgA), modM(c*lcgA)
		if v, ok := fastStrip((ua^int64(a)^cf)+(uc^int64(c)^ct), s, b); ok {
			col[l] += v
		} else {
			fs[l] = uint8(k)
		}
	}
}

// stepAgree cross-checks stepVec against the scalar body of stepCol
// for every column the speculative sampler draws, on fixed seeds (the
// edges of the normalized seed range, math/rand's substitute for seed
// 0 and a pseudo-random spread, in a whole number of groups of four)
// and means (signed zeros among them): every column's bits and every
// lane's first failing column must agree, at Table 1's sigma and 3-sigma
// bound of each parameter and at a bound of 1e-3 sigma, where most
// lanes fail.
func stepAgree() bool {
	xs := []uint64{1, 2, 3, lcgA, 1 << 30, 1<<30 - 1, 1<<30 + 1, int32max - 1,
		int32max - 2, int32max - lcgA, 89482311, 0x55555555, 0x2AAAAAAA, 0x7FFF0000, 0xFFFF, 0x10000}
	for i := int64(0); len(xs) < specLanes; i++ {
		xs = append(xs, normSeed(MixSeed(2006, i)))
	}
	// Table 1's sigma of Leff, Vt, W, T and H (variation.Nassif45nm).
	sigma := [...]float64{1.5, 13.2, 0.0275, 0.0605, 0.0175}
	for _, scale := range []float64{3, 1e-3} {
		var vc, sc [specLanes]float64
		var vf, sf [specLanes]uint8
		for l := range xs {
			vc[l] = float64(l%7-3) * 0.25
			if l%5 == 0 {
				vc[l] = math.Copysign(0, -1)
			}
			vf[l] = specCols
		}
		sc, sf = vc, vf
		for k := 0; k < specCols; k++ {
			s := sigma[k%len(sigma)]
			stepCol(xs, vc[:], vf[:], k, s, scale*s, true)
			stepCol(xs, sc[:], sf[:], k, s, scale*s, false)
			if vf != sf {
				return false
			}
			for l := range vc {
				if math.Float64bits(vc[l]) != math.Float64bits(sc[l]) {
					return false
				}
			}
		}
	}
	return true
}

// knwn packs kn[i] (low 32 bits) and the bits of wn[i] (high 32 bits),
// so the four-lane step fetches both with one gather; init fills it.
var knwn [128]uint64

// absInt32 is math/rand's |j| for the ziggurat's strip test (MinInt32
// maps to 2^31, past every threshold).
func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// zigProbe is a math/rand source that answers the first Int63 with a
// chosen 32-bit draw (placed where Uint32 reads it) and every later one
// with 0, counting the calls. NormFloat64 on it took the fast strip
// exactly when it made one call; the zeros end its slow paths quickly.
type zigProbe struct {
	u     uint32
	calls int
}

func (p *zigProbe) Int63() int64 {
	p.calls++
	if p.calls == 1 {
		return int64(p.u) << 31
	}
	return 0
}

func (p *zigProbe) Seed(int64) {}

// verifyZiggurat cross-checks the copied kn/wn tables against stock
// math/rand's NormFloat64: for every strip and both signs, the reachable
// draws on either side of the strip's acceptance threshold must take
// the fast strip exactly when absInt32(j) < kn[i], returning
// float64(j)*float64(wn[i]).
func verifyZiggurat() bool {
	p := new(zigProbe)
	r := rand.New(p)
	for i := int32(0); i < 128; i++ {
		for _, edge := range []int32{int32(kn[i]), -int32(kn[i])} {
			base := edge&^0x7F | i
			for _, j := range []int32{base - 128, base, base + 128} {
				p.u, p.calls = uint32(j), 0
				got := r.NormFloat64()
				fast := absInt32(j) < kn[j&0x7F]
				if (p.calls == 1) != fast {
					return false
				}
				if fast && got != float64(j)*float64(wn[j&0x7F]) {
					return false
				}
			}
		}
	}
	return true
}
