package stats

import "math/rand"

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
// k draws its accepted columns consumed), then TruncNormal for the
// remaining columns — so the slow
// strips, the tail, rejections and the uniform fallback all run on
// math/rand's own code. A lane's columns are written only while the
// assumption holds, and the value in a column is its draw's mean, so a
// resumed lane sees exactly the inputs the scalar loop would.

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

// vecWords reports that the speculative sampler computes its draw
// words four lanes at a time (colWords): the CPU and OS support AVX2
// and the loop reproduced the scalar words on every init probe.
// Nothing else configures it.
var vecWords bool

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
		g.speculateColumns(seeds, cols, sigma, bound, vecWords)
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
// O(1) source: speculative column loops per chunk of specLanes lanes,
// then the exact scalar path for every lane whose speculation failed.
// vec selects the four-lane draw words (colWords); the result is the
// same either way.
func (g *RNG) speculateColumns(seeds []int64, cols [][]float64, sigma, bound []float64, vec bool) {
	nc := uint8(len(cols))
	var x0 [specLanes]uint64
	var words [specLanes]int64
	var fail [specLanes]uint8 // first column not drawn speculatively; nc when none
	for start := 0; start < len(seeds); start += specLanes {
		chunk := seeds[start:min(start+specLanes, len(seeds))]
		xs, fs := x0[:len(chunk)], fail[:len(chunk)]
		for l, seed := range chunk {
			xs[l] = normSeed(seed)
			fs[l] = nc
		}
		for k := uint8(0); k < nc; k++ {
			col := cols[k][start : start+len(xs)]
			s, b := sigma[k], bound[k]
			// Draw k reads entries 333-k (feed) and 606-k (tap).
			f, t := rngLen-rngTap-1-int(k), rngLen-1-int(k)
			ws := words[:len(xs)]
			colWords(ws, xs, lcgJump[f], lcgJump[t], rngCooked[f], rngCooked[t], vec)
			for l, x := range ws {
				// rand.Rand.NormFloat64's fast strip on Uint32() =
				// uint32(Int63() >> 31), then TruncNormal's bound test.
				j := int32(uint32(uint64(x) & rngMask >> 31))
				i := j & 0x7F
				v := s * (float64(j) * float64(wn[i]))
				if fs[l] > k {
					if absInt32(j) < kn[i] && v >= -b && v <= b {
						col[l] += v
					} else {
						fs[l] = k
					}
				}
			}
		}
		for l, seed := range chunk {
			k := int(fs[l])
			if k == int(nc) {
				continue
			}
			// Resume at draw k: a lazy source's state is (seed, draws).
			g.Reseed(seed)
			g.fsrc.drawn = k
			for ; k < int(nc); k++ {
				cols[k][start+l] = g.TruncNormal(cols[k][start+l], sigma[k], bound[k])
			}
		}
	}
}

// colWords sets ws[l] to lane l's draw word for one column, the sum of
// the seeded entries whose Lehmer jumps are jf (feed) and jt (tap) and
// whose cooked words are cf and ct: seedEntry(xs[l], jf, cf) +
// seedEntry(xs[l], jt, ct). With vec set, whole groups of four lanes
// go to the AVX2 loop wordsVec; the tail, and every lane without vec,
// run the scalar body below. Both are exact integer arithmetic, so
// the words are identical.
func colWords(ws []int64, xs []uint64, jf, jt uint64, cf, ct int64, vec bool) {
	n := 0
	if vec {
		n = wordsVec(xs, ws, jf, jt, cf, ct)
	}
	for l := n; l < len(xs); l++ {
		// seedEntry(x0, jf, cf) + seedEntry(x0, jt, ct), written out:
		// the two Lehmer chains are independent, so their steps overlap.
		x0 := xs[l]
		a, c := modM(x0*jf), modM(x0*jt)
		ua, uc := int64(a)<<40, int64(c)<<40
		a, c = modM(a*lcgA), modM(c*lcgA)
		ua, uc = ua^int64(a)<<20, uc^int64(c)<<20
		a, c = modM(a*lcgA), modM(c*lcgA)
		ws[l] = (ua ^ int64(a) ^ cf) + (uc ^ int64(c) ^ ct)
	}
}

// wordsAgree cross-checks wordsVec against the scalar body of colWords
// for every column the speculative sampler draws, on fixed seeds: the
// edges of the normalized seed range, math/rand's substitute for seed
// 0 and a pseudo-random spread, in a whole number of groups of four.
func wordsAgree() bool {
	xs := []uint64{1, 2, 3, lcgA, 1 << 30, 1<<30 - 1, 1<<30 + 1, int32max - 1,
		int32max - 2, int32max - lcgA, 89482311, 0x55555555, 0x2AAAAAAA, 0x7FFF0000, 0xFFFF, 0x10000}
	for i := int64(0); len(xs) < specLanes; i++ {
		xs = append(xs, normSeed(MixSeed(2006, i)))
	}
	var vec, sca [specLanes]int64
	for k := 0; k < specCols; k++ {
		f, t := rngLen-rngTap-1-k, rngLen-1-k
		jf, jt, cf, ct := lcgJump[f], lcgJump[t], rngCooked[f], rngCooked[t]
		if wordsVec(xs, vec[:], jf, jt, cf, ct) != len(xs) {
			return false
		}
		colWords(sca[:], xs, jf, jt, cf, ct, false)
		if vec != sca {
			return false
		}
	}
	return true
}

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
