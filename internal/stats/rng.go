// Package stats provides the statistical substrate for the yield-aware
// cache study: deterministic random number generation, truncated Gaussian
// sampling as used by the Monte Carlo process-variation framework,
// summary statistics (mean, standard deviation, percentiles,
// correlation) used to set yield constraints and report results, and
// the streaming accumulators and confidence intervals behind the live
// yield estimate.
//
// Everything in this package is deterministic given a seed, so that the
// 2000-chip Monte Carlo populations used in the experiments are exactly
// reproducible from run to run.
package stats

import "math/rand"

// RNG is a deterministic source of random samples. It wraps math/rand
// with the sampling primitives the variation model needs. It is not safe
// for concurrent use; derive independent streams with Split, or reuse
// one generator across many short streams with Reseed.
type RNG struct {
	seed int64
	r    *rand.Rand
	fsrc *fastSource // O(1)-reseed source (nil when unavailable)
	src  rand.Source // stock source fallback
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	if seedJumpOK {
		fs := new(fastSource)
		fs.Seed(seed)
		return &RNG{seed: seed, r: rand.New(fs), fsrc: fs}
	}
	src := rand.NewSource(seed)
	return &RNG{seed: seed, r: rand.New(src), src: src}
}

// Reseed repositions the generator at the start of the stream for seed,
// producing exactly the sequence a fresh NewRNG(seed) would. It never
// allocates, and with the seed-jump source it is O(1), which is what
// lets the Monte Carlo measurement kernel draw one short stream per
// region node without re-seeding cost.
func (g *RNG) Reseed(seed int64) {
	g.seed = seed
	if g.fsrc != nil {
		g.fsrc.Seed(seed)
		return
	}
	g.src.Seed(seed)
}

// MixSeed derives a child seed from a parent seed and a label using a
// splitmix64-style finalizer. It is a pure function, so derivations are
// independent of sampling order.
func MixSeed(parent, label int64) int64 {
	z := uint64(parent) + uint64(label)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// Split derives an independent child generator. The child's stream is a
// pure function of the parent's *seed* and the label — it does not
// consume or depend on the parent's sampling position — so a fixed
// (seed, label) pair always yields the same child stream regardless of
// how much either generator has been used.
func (g *RNG) Split(label int64) *RNG {
	return NewRNG(MixSeed(g.seed, label))
}

// Seed returns the seed this generator was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, sigma float64) float64 {
	return mean + sigma*g.r.NormFloat64()
}

// TruncNormal returns a Gaussian sample with the given mean and standard
// deviation, truncated (by rejection) to [mean-bound, mean+bound].
// The variation model uses bound = 3*sigma: process parameters are drawn
// inside their published 3-sigma windows, matching the paper's use of the
// Nassif variation limits as hard sampling intervals.
func (g *RNG) TruncNormal(mean, sigma, bound float64) float64 {
	if sigma <= 0 || bound <= 0 {
		return mean
	}
	for i := 0; i < 64; i++ {
		v := sigma * g.r.NormFloat64()
		if v >= -bound && v <= bound {
			return mean + v
		}
	}
	// Pathological sigma/bound ratio: fall back to a uniform draw in the
	// window so the sampler always terminates.
	return mean + (2*g.r.Float64()-1)*bound
}
