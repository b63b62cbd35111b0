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
// four-lane column step on (when the host runs it) and off, and
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
					t.Fatalf("vector step %v, lane %d (seed %d) column %d: got %v, stock math/rand gives %v",
						vec && vecStep, l, c.seeds[l], k, got[k][l], want[k][l])
				}
			}
		}
	}
}

// drawColumns is g.TruncNormalColumns with the speculative sampler's
// four-lane column step allowed (vec) or not; without vec a speculable
// batch takes the scalar step.
func drawColumns(g *RNG, seeds []int64, cols [][]float64, sigma, bound []float64, vec bool) {
	if !vec && columnsOK && g.fsrc != nil && speculable(sigma, bound) {
		g.speculateColumns(seeds, cols, sigma, bound, false)
		return
	}
	g.TruncNormalColumns(seeds, cols, sigma, bound)
}

// TestWordsVecGate checks that a host with AVX2 passes the init
// cross-check of the four-lane column step, so a broken loop cannot
// hide behind the scalar fallback, and that the loop takes every whole
// group of four lanes.
func TestWordsVecGate(t *testing.T) {
	if cpufeat.AVX2() && columnsOK && !vecStep {
		t.Fatal("AVX2 present but the four-lane column step failed its init cross-check against the scalar step")
	}
	if vecStep {
		xs, col, fs := []uint64{1, 2, 3, 4, 5, 6, 7}, make([]float64, 7), []uint8{1, 1, 1, 1, 1, 1, 1}
		f, tap := rngLen-rngTap-1, rngLen-1
		if n := stepVec(xs, col, fs, 0, lcgJump[f], lcgJump[tap], rngCooked[f], rngCooked[tap], 1, 3); n != 4 {
			t.Fatalf("stepVec took %d of 7 lanes, want 4", n)
		}
	}
	t.Logf("four-lane column step: %v", vecStep)
}

// specialDraws lists seeds whose draw d (0-based) has an extreme
// ziggurat input j, found by an exhaustive search of the normalized
// seed range (1 to 2^31-2) over draws 0-7: j = 0, where s*(j*wn[i]) is
// a NaN for an infinite s; j = MinInt32, whose |j| = 2^31 fails every
// strip (a signed compare would read it as negative and accept it);
// and |j| == kn[j&0x7F], which the strict strip test rejects. Every
// such draw in the range is listed.
var specialDraws = map[string][]struct {
	seed int64
	d    int
}{
	"j=0":        {{1181427728, 3}, {1586534724, 3}, {966055919, 3}, {1099294728, 6}, {2325309, 7}},
	"j=MinInt32": {{1214138711, 0}, {828723285, 2}, {1715726122, 4}, {1152061376, 5}, {120846370, 7}},
	"|j|=kn[i]": {{1218348140, 0}, {875882750, 0}, {1316692078, 1}, {287750917, 2}, {418139421, 2},
		{351198123, 3}, {1294761156, 4}, {108216601, 5}, {1807351826, 6}, {341193144, 7}, {421880334, 7}},
}

// drawJ returns the ziggurat input j of draw d of seed's stream.
func drawJ(seed int64, d int) int32 {
	fs := new(fastSource)
	fs.Seed(seed)
	return int32(uint32(uint64(fs.lazyWord(d)) & rngMask >> 31))
}

// TestSpecialDrawsStep checks the list above and runs the column step
// on edge draws at their own column, four lanes at a time and on the
// scalar body, from signed-zero means: column bits and first failing
// columns must agree, a rejected lane must keep its mean's bits, and
// the draw must be accepted or rejected as Go's TruncNormal would
// take it on its first try. The edge draws are the special draws at
// Table 1's sigma and an infinite one, under Table 1's bound and an
// infinite one (MinInt32's v is about -3.7 sigma, inside only the
// latter), and draws whose v is exactly +b or -b.
func TestSpecialDrawsStep(t *testing.T) {
	sigma, bound := table1Columns(1)
	type edge struct {
		name    string
		seed    int64
		d       int
		s, b    float64
		accepts bool
	}
	var edges []edge
	for class, draws := range specialDraws {
		for _, sd := range draws {
			j := drawJ(sd.seed, sd.d)
			if ok := map[string]bool{"j=0": j == 0, "j=MinInt32": j == math.MinInt32,
				"|j|=kn[i]": absInt32(j) == kn[j&0x7F]}[class]; !ok {
				t.Fatalf("seed %d draw %d: j = %d is not %s", sd.seed, sd.d, j, class)
			}
			for _, s := range []float64{sigma[sd.d%5], math.Inf(1)} {
				for _, b := range []float64{bound[sd.d%5], math.Inf(1)} {
					// Only j = 0 at a finite sigma passes (v = 0).
					edges = append(edges, edge{class, sd.seed, sd.d, s, b, class == "j=0" && !math.IsInf(s, 1)})
				}
			}
		}
	}
	for name, sign := range map[string]float64{"v = +b": 1, "v = -b": -1} {
		fs := new(fastSource)
		for seed := int64(1); ; seed++ {
			fs.Seed(seed)
			if v, ok := fastStrip(fs.lazyWord(0), sigma[0], math.Inf(1)); ok && sign*v > 0 {
				edges = append(edges, edge{name, seed, 0, sigma[0], math.Abs(v), true})
				break
			}
		}
	}
	for _, e := range edges {
		xs := []uint64{normSeed(e.seed), 1, 2, 3, 4}
		var col [2][5]float64
		var fs [2][5]uint8
		for l := range xs {
			col[0][l], col[1][l] = math.Copysign(0, -1), math.Copysign(0, -1)
			fs[0][l], fs[1][l] = specCols, specCols
		}
		stepCol(xs, col[0][:], fs[0][:], e.d, e.s, e.b, vecStep)
		stepCol(xs, col[1][:], fs[1][:], e.d, e.s, e.b, false)
		for l := range xs {
			v, c := math.Float64bits(col[0][l]), math.Float64bits(col[1][l])
			if v != c || fs[0][l] != fs[1][l] || (fs[0][l] == uint8(e.d) && v != 1<<63) {
				t.Fatalf("%s seed %d draw %d sigma %v bound %v lane %d: vector step %v (fail %d), scalar %v (fail %d)",
					e.name, e.seed, e.d, e.s, e.b, l, col[0][l], fs[0][l], col[1][l], fs[1][l])
			}
		}
		if got := fs[1][0] == specCols; got != e.accepts {
			t.Fatalf("%s seed %d draw %d sigma %v bound %v: accepted %v, want %v", e.name, e.seed, e.d, e.s, e.b, got, e.accepts)
		}
	}
}

// FuzzSpeculateColumns checks the speculative sampler with the
// four-lane column step (the fused draw words, strip test, bound test
// and column update) against the same sampler on the scalar step, and
// both against stock math/rand, bit for bit: lane seeds start at seed
// and step by stride (so they cross 0, the negatives and 2^31-1), with
// 1-8 columns, 0-200 lanes and positive sigma and bound columns taken
// from the raw bits in params (8 bytes each, sigma then bound); an odd
// byte after them makes every mean -0.
func FuzzSpeculateColumns(f *testing.F) {
	f.Add(int64(2006), int64(1), uint8(5), uint8(64), []byte{})
	f.Add(int64(0), int64(-1), uint8(1), uint8(3), []byte{})
	f.Add(int64(-1), int64(1), uint8(8), uint8(200), []byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F})
	f.Add(int64(int32max-2), int64(1), uint8(3), uint8(7), []byte{})
	f.Add(int64(math.MinInt64), int64(int32max), uint8(2), uint8(65), []byte{})
	f.Add(int64(math.MaxInt64), int64(1)<<31, uint8(6), uint8(129), make([]byte, 96))
	// The special draws (specialDraws) at their own column, j = 0 under
	// an infinite sigma (v is NaN), a v exactly at the bound, and -0
	// means under a bound of 1e-3 sigma in every column.
	sig, _ := table1Columns(1)
	f.Add(int64(1214138711), int64(1), uint8(0), uint8(4), []byte{})
	f.Add(int64(1218348140), int64(1), uint8(0), uint8(8), []byte{})
	f.Add(int64(1181427728), int64(1), uint8(3), uint8(4), f64s(sig[0], sig[1], sig[2], math.Inf(1)))
	src := new(fastSource)
	for seed := int64(1); ; seed++ {
		src.Seed(seed)
		if v, ok := fastStrip(src.lazyWord(0), sig[0], math.Inf(1)); ok {
			f.Add(seed, int64(1), uint8(0), uint8(4), f64s(sig[0], math.Abs(v)))
			break
		}
	}
	tight := append([]float64(nil), sig...)
	for k := range sig {
		tight = append(tight, 1e-3*sig[k])
	}
	f.Add(int64(7), int64(3), uint8(4), uint8(64), append(f64s(tight...), 1))
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
		if len(params) > 16*nc && params[16*nc]&1 == 1 {
			c.mean = func(int, int) float64 { return math.Copysign(0, -1) }
		}
		vec, sca, want := c.columns(), c.columns(), c.columns()
		g.speculateColumns(seeds, vec, sigma, bound, vecStep)
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

// f64s encodes vs as little-endian float64s, the layout
// FuzzSpeculateColumns reads its sigma and bound columns from.
func f64s(vs ...float64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
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
// column step on and off: columns it must not speculate on, draws in
// the ziggurat's tail and wedges, rejection exhaustion into the uniform
// fallback (and past the lazy window), resumed lanes rejoining the fast
// strip, the special draws, a v exactly at either bound, signed-zero
// means, and lane counts around the chunk size and the four-lane
// groups.
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
	// Every column's bound at 1e-3 sigma: lanes fail column after
	// column, exhaust their 64 tries into the uniform fallback and
	// rejoin the fast strip (past the lazy window too).
	tight := make([]float64, len(bound))
	for k := range tight {
		tight[k] = 1e-3 * sigma[k]
	}
	add("bound/sigma 1e-3", seeds, sigma, tight)
	negZero := func(int, int) float64 { return math.Copysign(0, -1) }
	cases["-0 means"] = columnCase{seeds: seeds, sigma: sigma, bound: bound, mean: negZero}
	cases["-0 means, bound/sigma 1e-3"] = columnCase{seeds: seeds, sigma: sigma, bound: tight, mean: negZero}
	// A bound equal to a lane's |v| at draw 0: the bound test is closed.
	for name, sign := range map[string]float64{"v = +bound": 1, "v = -bound": -1} {
		fs := new(fastSource)
		for _, seed := range seeds {
			fs.Seed(seed)
			if v, ok := fastStrip(fs.lazyWord(0), sigma[0], math.Inf(1)); ok && sign*v > 0 {
				s0, b0 := with(0, sigma[0], math.Abs(v))
				add(name, seeds, s0, b0)
				break
			}
		}
	}
	// The special draws with eight columns, each class's seeds first
	// and padded to whole groups of four so the vector step sees them,
	// under Table 1's bounds and infinite ones (MinInt32's v is about
	// -3.7 sigma); j = 0 also with an infinite sigma in its column,
	// where v is NaN.
	s8, b8, inf8 := make([]float64, specCols), make([]float64, specCols), make([]float64, specCols)
	for k := range s8 {
		s8[k], b8[k], inf8[k] = sigma[k%5], bound[k%5], math.Inf(1)
	}
	for class, draws := range specialDraws {
		var ss []int64
		for _, sd := range draws {
			ss = append(ss, sd.seed)
		}
		ss = append(ss, laneSeeds(-len(ss)&3, 5)...)
		add(class, ss, s8, b8)
		add(class+", bound +Inf", ss, s8, inf8)
		if class != "j=0" {
			continue
		}
		for _, sd := range draws {
			sInf := append([]float64(nil), s8...)
			sInf[sd.d] = math.Inf(1)
			add(fmt.Sprintf("j=0 at draw %d, sigma +Inf", sd.d), ss, sInf, b8)
		}
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
