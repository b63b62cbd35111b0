package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"yieldcache/internal/cpufeat"
)

// stockColumns is the test-local reference for TruncNormalColumns,
// built on stock math/rand alone: per lane a stock source positioned at
// the lane's seed (Seed(seed) is exactly what rand.NewSource(seed)
// does; reusing one source only saves its 4.9 KB allocation), wrapped
// in rand.New, and its own truncation loop.
func stockColumns(seeds []int64, cols [][]float64, sigma, bound []float64) {
	src := rand.NewSource(0)
	r := rand.New(src)
	for l, seed := range seeds {
		src.Seed(seed)
		for k := range cols {
			cols[k][l] = stockTrunc(r, cols[k][l], sigma[k], bound[k])
		}
	}
}

func stockTrunc(r *rand.Rand, mean, sigma, bound float64) float64 {
	if sigma <= 0 || bound <= 0 {
		return mean
	}
	for i := 0; i < 64; i++ {
		if v := sigma * r.NormFloat64(); v >= -bound && v <= bound {
			return mean + v
		}
	}
	return mean + (2*r.Float64()-1)*bound
}

// table1 is variation.Nassif45nm: nominal values and 3-sigma windows in
// percent of nominal (Leff nm, Vt mV, W/T/H um).
var table1 = [5]struct{ nom, pct float64 }{{45, 10}, {220, 18}, {0.25, 33}, {0.55, 33}, {0.15, 35}}

// table1Columns returns the Table 1 sigma and bound of every source,
// scaled by factor the way variation.ChildrenBatch scales them.
func table1Columns(factor float64) (sigma, bound []float64) {
	for _, p := range table1 {
		sigma = append(sigma, factor*(p.nom*p.pct/100/3))
		bound = append(bound, factor*(p.nom*p.pct/100))
	}
	return sigma, bound
}

// columnCase is one TruncNormalColumns input; checkColumns runs it
// through the generator under test and through stockColumns.
type columnCase struct {
	seeds        []int64
	sigma, bound []float64
	mean         func(k, l int) float64
}

func laneSeeds(n int, salt int64) []int64 {
	s := make([]int64, n)
	for l := range s {
		s[l] = MixSeed(salt, int64(l))
	}
	return s
}

func (c columnCase) columns() [][]float64 {
	cols := make([][]float64, len(c.sigma))
	for k := range cols {
		cols[k] = make([]float64, len(c.seeds))
		for l := range cols[k] {
			cols[k][l] = c.mean(k, l)
		}
	}
	return cols
}

// checkColumns draws c with the generator under test twice, with the
// four-lane draw words on (when the host runs them) and off, and
// compares both with stockColumns bit for bit.
func checkColumns(t *testing.T, g *RNG, c columnCase) {
	t.Helper()
	if g.fsrc != nil && !columnsOK {
		t.Fatal("speculative column sampler disabled by its init cross-check")
	}
	want := c.columns()
	stockColumns(c.seeds, want, c.sigma, c.bound)
	for _, vec := range []bool{true, false} {
		got := c.columns()
		drawColumns(g, c.seeds, got, c.sigma, c.bound, vec)
		for k := range got {
			for l := range got[k] {
				if math.Float64bits(got[k][l]) != math.Float64bits(want[k][l]) {
					t.Fatalf("vector words %v, lane %d (seed %d) column %d: got %v, stock math/rand gives %v",
						vec && vecWords, l, c.seeds[l], k, got[k][l], want[k][l])
				}
			}
		}
	}
}

// drawColumns is g.TruncNormalColumns with the speculative sampler's
// four-lane draw words allowed (vec) or not; without vec a speculable
// batch takes the scalar words.
func drawColumns(g *RNG, seeds []int64, cols [][]float64, sigma, bound []float64, vec bool) {
	if !vec && columnsOK && g.fsrc != nil && speculable(sigma, bound) {
		g.speculateColumns(seeds, cols, sigma, bound, false)
		return
	}
	g.TruncNormalColumns(seeds, cols, sigma, bound)
}

// TestWordsVecGate checks that a host with AVX2 passes the init
// cross-check of the four-lane draw words, so a broken loop cannot
// hide behind the scalar fallback.
func TestWordsVecGate(t *testing.T) {
	if cpufeat.AVX2() && columnsOK && !vecWords {
		t.Fatal("AVX2 present but the draw-word loop failed its init cross-check against the scalar body")
	}
	t.Logf("four-lane draw words: %v", vecWords)
}

// FuzzSpeculateColumns checks the speculative sampler with the
// four-lane draw words against the same sampler on the scalar words,
// and both against stock math/rand, bit for bit: lane seeds start at
// seed and step by stride (so they cross 0, the negatives and 2^31-1),
// with 1-8 columns, 0-200 lanes and positive sigma and bound columns
// taken from the raw bits in params (8 bytes each, sigma then bound).
func FuzzSpeculateColumns(f *testing.F) {
	f.Add(int64(2006), int64(1), uint8(5), uint8(64), []byte{})
	f.Add(int64(0), int64(-1), uint8(1), uint8(3), []byte{})
	f.Add(int64(-1), int64(1), uint8(8), uint8(200), []byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F})
	f.Add(int64(int32max-2), int64(1), uint8(3), uint8(7), []byte{})
	f.Add(int64(math.MinInt64), int64(int32max), uint8(2), uint8(65), []byte{})
	f.Add(int64(math.MaxInt64), int64(1)<<31, uint8(6), uint8(129), make([]byte, 96))
	f.Fuzz(func(t *testing.T, seed, stride int64, ncols, lanes uint8, params []byte) {
		g := NewRNG(0)
		if g.fsrc == nil || !columnsOK {
			t.Skip("speculative sampler disabled on this runtime")
		}
		nc, n := 1+int(ncols%specCols), int(lanes)%201
		sigma, bound := make([]float64, nc), make([]float64, nc)
		sigma0, bound0 := table1Columns(1)
		for k := range sigma {
			sigma[k], bound[k] = sigma0[k%5], bound0[k%5]
			if len(params) >= 8*(k+1) {
				sigma[k] = positive(params[8*k:], sigma[k])
			}
			if len(params) >= 8*(nc+k+1) {
				bound[k] = positive(params[8*(nc+k):], bound[k])
			}
		}
		seeds := make([]int64, n)
		for l := range seeds {
			seeds[l] = seed + int64(l)*stride
		}
		c := columnCase{seeds: seeds, sigma: sigma, bound: bound, mean: nominalMeans}
		vec, sca, want := c.columns(), c.columns(), c.columns()
		g.speculateColumns(seeds, vec, sigma, bound, vecWords)
		g.speculateColumns(seeds, sca, sigma, bound, false)
		stockColumns(seeds, want, sigma, bound)
		for k := range vec {
			for l := range vec[k] {
				v, s, w := math.Float64bits(vec[k][l]), math.Float64bits(sca[k][l]), math.Float64bits(want[k][l])
				if v != s || s != w {
					t.Fatalf("lane %d (seed %d) column %d: vector words %v, scalar words %v, stock %v",
						l, seeds[l], k, vec[k][l], sca[k][l], want[k][l])
				}
			}
		}
	})
}

// positive reads a float64 from the first 8 bytes of b and returns its
// magnitude, or def when that is zero or NaN.
func positive(b []byte, def float64) float64 {
	v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	if !(v > 0) {
		return def
	}
	return v
}

// nominalMeans centres column k on the Table 1 nominal of source k,
// offset per lane the way a parent draw offsets a child.
func nominalMeans(k, l int) float64 {
	p := table1[k%len(table1)]
	return p.nom * (1 + float64(l%97-48)*1e-3)
}

// TestTruncNormalColumnsMatchesStock is the sampling differential: at
// the Table 1 sigma/bound and at every correlation factor the
// variation package's ChildrenBatch draws with (rows and blocks 0.05,
// the three way factors, the band factor 0.5 and the sense-amp mismatch
// 1.0), 100k lanes x 5 columns must equal stock math/rand bit for bit,
// with the four-lane draw words on and off.
func TestTruncNormalColumnsMatchesStock(t *testing.T) {
	const lanes = 100_000
	for i, factor := range []float64{1, 0.05, 0.375, 0.45, 0.5, 0.7125} {
		sigma, bound := table1Columns(factor)
		c := columnCase{seeds: laneSeeds(lanes, int64(2006+i)), sigma: sigma, bound: bound, mean: nominalMeans}
		t.Run(fmt.Sprintf("factor %v", factor), func(t *testing.T) {
			t.Parallel()
			checkColumns(t, NewRNG(0), c)
		})
	}
}

// findSeeds returns n seeds whose draw at position pos (0-based, after
// pos draws that each take the ziggurat's fast strip) satisfies pick,
// given its strip index i and |j| against the strip threshold.
func findSeeds(n, pos int, pick func(i int32, abs, k uint32) bool) []int64 {
	var out []int64
	fs := new(fastSource)
	for seed := int64(1); len(out) < n; seed++ {
		fs.Seed(seed)
		ok := true
		for d := 0; d <= pos && ok; d++ {
			j := int32(uint32(fs.Int63() >> 31))
			i := j & 0x7F
			if d < pos {
				ok = absInt32(j) < kn[i] && math.Abs(float64(j)*float64(wn[i])) < 3
			} else {
				ok = pick(i, absInt32(j), kn[i])
			}
		}
		if ok {
			out = append(out, seed)
		}
	}
	return out
}

// TestTruncNormalColumnsEdgeCases forces every fallback of the
// speculative sampler against the stock reference, with the four-lane
// draw words on and off: columns it must not speculate on, draws in the
// ziggurat's tail and wedges, rejection exhaustion into the uniform
// fallback (and past the lazy window), and lane counts around the chunk
// size and the four-lane groups.
func TestTruncNormalColumnsEdgeCases(t *testing.T) {
	sigma, bound := table1Columns(1)
	with := func(k int, s, b float64) ([]float64, []float64) {
		s2, b2 := append([]float64(nil), sigma...), append([]float64(nil), bound...)
		s2[k], b2[k] = s, b
		return s2, b2
	}
	tail := func(i int32, abs, k uint32) bool { return i == 0 && abs >= k }
	wedge := func(i int32, abs, k uint32) bool { return i != 0 && abs >= k }
	cases := map[string]columnCase{}
	add := func(name string, seeds []int64, s, b []float64) {
		cases[name] = columnCase{seeds: seeds, sigma: s, bound: b, mean: nominalMeans}
	}
	seeds := laneSeeds(300, 7)
	s0, b0 := with(2, 0, bound[2])
	add("sigma 0", seeds, s0, b0)
	s0, b0 = with(4, sigma[4], 0)
	add("bound 0", seeds, s0, b0)
	s0, b0 = with(1, sigma[1], 0.01*sigma[1])
	add("bound/sigma 0.01", seeds, s0, b0)
	// Three speculated columns, then five that nearly always exhaust
	// their 64 rejections: resumed lanes run past the 273-draw window.
	wide, wideB := append([]float64(nil), sigma[:3]...), append([]float64(nil), bound[:3]...)
	for k := 0; k < 5; k++ {
		wide = append(wide, sigma[k])
		wideB = append(wideB, 0.01*sigma[k])
	}
	add("8 columns past the lazy window", seeds, wide, wideB)
	nine, nineB := append(append([]float64(nil), sigma...), sigma[:4]...), append(append([]float64(nil), bound...), bound[:4]...)
	add("9 columns", seeds, nine, nineB)
	for _, pos := range []int{0, 2, 4} {
		add(fmt.Sprintf("tail at draw %d", pos), findSeeds(8, pos, tail), sigma, bound)
		add(fmt.Sprintf("wedge at draw %d", pos), findSeeds(8, pos, wedge), sigma, bound)
	}
	for _, n := range []int{0, 1, 3, 4, 5, 63, 64, 65, 200} {
		add(fmt.Sprintf("%d lanes", n), laneSeeds(n, int64(n)), sigma, bound)
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) { checkColumns(t, NewRNG(0), c) })
	}
}

// TestTruncNormalColumnsStockSource runs the sampling differential on
// the fallback taken when the O(1) source is unavailable.
func TestTruncNormalColumnsStockSource(t *testing.T) {
	forceStockSource(t)
	g := NewRNG(0)
	if g.fsrc != nil {
		t.Fatal("forced stock source still built the O(1) source")
	}
	for i, factor := range []float64{1, 0.05, 0.5} {
		sigma, bound := table1Columns(factor)
		checkColumns(t, g, columnCase{seeds: laneSeeds(5000, int64(i)), sigma: sigma, bound: bound, mean: nominalMeans})
	}
	s := table1[1].nom * table1[1].pct / 300
	checkColumns(t, g, columnCase{seeds: laneSeeds(300, 9), sigma: []float64{s, s}, bound: []float64{0.01 * s, 0}, mean: nominalMeans})
}

// TestModMMatchesRemainder pins the Mersenne fold against the hardware
// remainder on the edges of its domain and on random products of the
// sizes the Lehmer steps form.
func TestModMMatchesRemainder(t *testing.T) {
	const m = int32max
	edges := []uint64{0, 1, m - 1, m, m + 1, 2*m - 1, 2 * m, 2*m + 1, 1 << 31, 1<<32 - 1,
		(m - 1) * (m - 1), (m - 1) * lcgA, m * m, m*m + m, 1<<62 - 2}
	for _, p := range edges {
		if got, want := modM(p), p%m; got != want {
			t.Errorf("modM(%#x) = %d, want %d", p, got, want)
		}
	}
	r := rand.New(rand.NewSource(62))
	for i := 0; i < 1_000_000; i++ {
		x := uint64(r.Int63n(m-1)) + 1
		var p uint64
		switch i % 3 {
		case 0:
			p = x * lcgA
		case 1:
			p = x * lcgJump[i%rngLen]
		default:
			p = uint64(r.Int63n(1<<62 - 1))
		}
		if got, want := modM(p), p%m; got != want {
			t.Fatalf("modM(%#x) = %d, want %d", p, got, want)
		}
	}
}
