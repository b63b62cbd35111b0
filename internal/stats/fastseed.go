package stats

import (
	"math"
	"math/rand"
	"reflect"
	"unsafe"

	"yieldcache/internal/cpufeat"
)

// This file makes reseeding a generator cheap. math/rand's default
// source (the Mitchell-Reeds additive lagged-Fibonacci generator) pays
// ~1900 Lehmer-LCG steps in Seed() to fill a 607-word state vector, of
// which a short-lived stream reads only a handful of entries. The
// variation sampler draws one short stream per region node (about five
// values each), so a stock reseed per node would cost far more than the
// draws themselves.
//
// fastSource produces the bit-identical output stream while seeding in
// O(1): Seed() records the normalized Lehmer seed, and each output
// computes the two state entries it needs on demand. Entry i of the
// seeded vector is a pure function of the seed — three consecutive
// values of the Lehmer chain x_{n+1} = 48271*x_n mod M, M = 2^31-1,
// XORed with a constant "cooked" word — and the chain can jump to any
// position with one modular multiplication by a precomputed power of
// 48271. The reduction mod M is modM, the Mersenne fold
// (p & M) + (p >> 31) with one conditional subtract, which is exact for
// every p < 2^62-1; every product reduced here is at most (M-1)^2.
//
// Lazy window: the first rngTap (273) draws after a seeding read only
// seeded entries, never an entry an earlier draw overwrote, so draw d
// (0-based) is the pure function entry(333-d) + entry(606-d) of the
// seed and d. The speculative column sampler in batch.go relies on
// exactly this.
//
// The cooked words are private to math/rand, so they are recovered once
// at init from a real seeded source; an output-stream cross-check then
// gates the fast path, falling back to plain math/rand seeding (still
// correct, just slower) if the runtime's layout ever changes.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lcgA     = 48271
)

var (
	// lcgJump[i] = 48271^(21+3i) mod (2^31-1): the Lehmer chain
	// position of the first of the three draws that feed vec[i]
	// (Seed runs 20 warmup steps, then 3 steps per entry).
	lcgJump [rngLen]uint64
	// rngCooked mirrors math/rand's private seeding constants,
	// recovered at init.
	rngCooked [rngLen]int64
	// seedJumpOK reports that recovery succeeded and the fast source
	// reproduces math/rand streams exactly.
	seedJumpOK bool
)

// rngSourceMirror matches the memory layout of math/rand's rngSource.
type rngSourceMirror struct {
	tap, feed int
	vec       [rngLen]int64
}

func init() {
	p := uint64(1)
	for k := 0; k < 21; k++ {
		p = p * lcgA % int32max
	}
	for i := 0; i < rngLen; i++ {
		lcgJump[i] = p
		for k := 0; k < 3; k++ {
			p = p * lcgA % int32max
		}
	}
	for i := range knwn {
		knwn[i] = uint64(kn[i]) | uint64(math.Float32bits(wn[i]))<<32
	}
	seedJumpOK = recoverCooked() && verifySeedJump()
	columnsOK = seedJumpOK && verifyZiggurat()
	vecStep = columnsOK && cpufeat.AVX2() && stepAgree()
}

// modM returns p mod 2^31-1 by folding the high bits onto the low ones
// (2^31 ≡ 1). The fold is at most 2M, and equals 2M only for
// p = 2^62-1, so one conditional subtract is exact for p < 2^62-1.
func modM(p uint64) uint64 {
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// normSeed replicates rngSource.Seed's reduction of the seed to the
// initial Lehmer state.
func normSeed(seed int64) uint64 {
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// recoverCooked extracts math/rand's seeding constants by seeding a real
// source and XOR-ing out the (reproducible) Lehmer contribution.
func recoverCooked() bool {
	src := rand.NewSource(1)
	v := reflect.ValueOf(src)
	if v.Kind() != reflect.Pointer {
		return false
	}
	m := (*rngSourceMirror)(unsafe.Pointer(v.Pointer()))
	if m.tap != 0 || m.feed != rngLen-rngTap {
		return false
	}
	x := normSeed(1)
	for k := 0; k < 20; k++ {
		x = x * lcgA % int32max
	}
	for i := 0; i < rngLen; i++ {
		x = x * lcgA % int32max
		u := int64(x) << 40
		x = x * lcgA % int32max
		u ^= int64(x) << 20
		x = x * lcgA % int32max
		u ^= int64(x)
		rngCooked[i] = m.vec[i] ^ u
	}
	return true
}

// verifySeedJump cross-checks the fast source against math/rand on a
// spread of seeds, past the lazy window (273 draws), the feed wrap
// (334) and a full vector cycle (607), plus mid-stream reseeds.
func verifySeedJump() bool {
	fs := new(fastSource)
	for _, seed := range []int64{1, 2006, 0, -1, -5, 89482311, int32max, int32max + 1, 1 << 62, -1 << 62} {
		ref := rand.NewSource(seed).(rand.Source64)
		fs.Seed(seed)
		for j := 0; j < 1500; j++ {
			if ref.Uint64() != fs.Uint64() {
				return false
			}
		}
	}
	for depth := 0; depth < 700; depth += 61 {
		fs.Seed(7)
		for j := 0; j < depth; j++ {
			fs.Uint64()
		}
		ref := rand.NewSource(2006).(rand.Source64)
		fs.Seed(2006)
		for j := 0; j < 800; j++ {
			if ref.Uint64() != fs.Uint64() {
				return false
			}
		}
	}
	return true
}

// SeedJumpEnabled reports whether the O(1)-reseed source is active. When
// false (unexpected runtime layout), stats falls back to stock math/rand
// seeding: identical streams, slower Reseed.
func SeedJumpEnabled() bool { return seedJumpOK }

// fastSource is a rand.Source64 emitting exactly the stream of
// math/rand's default source for the same seed. Until the 274th draw of
// a seeding it stays lazy, computing only the two state entries each
// draw touches and storing nothing, so its state is (seed, draws) alone;
// a longer-lived stream materializes the full vector once and proceeds
// like the original. Not safe for concurrent use.
type fastSource struct {
	vec       [rngLen]int64
	x0        uint64 // normalized Lehmer seed
	tap, feed int
	drawn     int // draws since Seed while lazy
	lazy      bool
}

// Seed repositions the stream for seed in O(1).
func (s *fastSource) Seed(seed int64) {
	s.x0 = normSeed(seed)
	s.drawn = 0
	s.lazy = true
}

// entry returns seeded-vector entry i for the current seed.
func (s *fastSource) entry(i int) int64 {
	return seedEntry(s.x0, lcgJump[i], rngCooked[i])
}

// lazyWord returns draw d of the current seed's stream, for d inside
// the lazy window: the sum of seeded entries 333-d (feed) and 606-d
// (tap).
func (s *fastSource) lazyWord(d int) int64 {
	return s.entry(rngLen-rngTap-1-d) + s.entry(rngLen-1-d)
}

// seedEntry returns the seeded-vector entry whose Lehmer jump and cooked
// word are given, for the normalized seed x0: three chained Lehmer
// values packed at bits 40, 20 and 0, XORed with the cooked word.
func seedEntry(x0, jump uint64, cooked int64) int64 {
	x := modM(x0 * jump)
	u := int64(x) << 40
	x = modM(x * lcgA)
	u ^= int64(x) << 20
	x = modM(x * lcgA)
	u ^= int64(x)
	return u ^ cooked
}

// materialize builds the full vector so drawing can continue past the
// lazy window: every seeded entry, then the feed entries the lazy draws
// overwrote, recomputed as the sums those draws returned (the tap
// entries 334..606 they read are never feed entries inside the window,
// so they are still the seeded ones).
func (s *fastSource) materialize() {
	for i := range s.vec {
		s.vec[i] = s.entry(i)
	}
	for d := 0; d < s.drawn; d++ {
		s.vec[rngLen-rngTap-1-d] += s.vec[rngLen-1-d]
	}
	s.tap = ((0-s.drawn)%rngLen + rngLen) % rngLen
	s.feed = ((rngLen-rngTap-s.drawn)%rngLen + rngLen) % rngLen
	s.lazy = false
}

func (s *fastSource) Uint64() uint64 {
	if s.lazy {
		if s.drawn < rngTap {
			x := s.lazyWord(s.drawn)
			s.drawn++
			return uint64(x)
		}
		s.materialize()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *fastSource) Int63() int64 { return int64(s.Uint64() & rngMask) }
