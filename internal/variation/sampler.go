package variation

import "yieldcache/internal/stats"

// Sampler draws correlated process-variation parameters for a population
// of chips. Chip i's entire parameter tree is a deterministic function of
// (seed, i), so populations are reproducible and independent of
// evaluation order.
type Sampler struct {
	spec Spec
	fact Factors
	seed int64
}

// NewSampler returns a sampler for the given process spec, correlation
// factors and master seed.
func NewSampler(spec Spec, fact Factors, seed int64) *Sampler {
	return &Sampler{spec: spec, fact: fact, seed: seed}
}

// Chip returns the root variation node for chip id. The root draw covers
// the combined inter-die and way-0 intra-die variation: parameters are
// drawn around the Table 1 nominals inside the full 3-sigma window.
func (s *Sampler) Chip(id int) *Node {
	rng := stats.NewRNG(s.seed).Split(int64(id) + 1)
	n := &Node{spec: s.spec, fact: s.fact, rng: rng}
	for p := Param(0); p < NumParams; p++ {
		n.Values[p] = rng.TruncNormal(s.spec.Nominal[p], s.spec.Sigma(p), s.spec.Bound(p))
	}
	return n
}

// Node is a chip's root region with its sampled parameter values. Its
// subtree is derived through a Scratch: see AsDraw and NewScratch.
type Node struct {
	Values Values
	spec   Spec
	fact   Factors
	rng    *stats.RNG
}

// AsDraw returns the node's value-typed form for the scratch-based
// measurement path: same values, and the same random stream for the
// children a Scratch derives from it.
func (n *Node) AsDraw() Draw {
	return Draw{Values: n.Values, seed: n.rng.Seed()}
}

// NewScratch returns a scratch sharing the node's spec and correlation
// factors, for deriving the node's subtree without allocation.
func (n *Node) NewScratch() *Scratch {
	return &Scratch{spec: n.spec, fact: n.fact, seed: n.rng.Seed(), rng: stats.NewRNG(0)}
}

// Draw is a value-typed variation region: the sampled parameter values
// plus the seed of the region's random stream, from which children are
// derived. It carries no generator or spec of its own — a Scratch
// performs the sampling — so the Monte Carlo measurement kernel can
// hold draws in reusable buffers with zero heap traffic.
type Draw struct {
	Values Values
	seed   int64
}

// Scratch is the per-worker sampling state of the allocation-free
// measurement path: one reusable generator plus the spec and factors.
// Chip i's subtree is a pure function of (seed, i): the Scratch
// repositions one generator per region instead of allocating one. Not
// safe for concurrent use; give each worker its own.
type Scratch struct {
	spec Spec
	fact Factors
	seed int64 // master sampler seed, used by Chip
	rng  *stats.RNG
}

// NewScratch returns a scratch drawing from the sampler's process spec,
// correlation factors and master seed.
func (s *Sampler) NewScratch() *Scratch {
	return &Scratch{spec: s.spec, fact: s.fact, seed: s.seed, rng: stats.NewRNG(0)}
}

// Spec returns the process specification the scratch draws from.
func (sc *Scratch) Spec() *Spec { return &sc.spec }

// Chip returns the root draw for chip id, identical to
// Sampler.Chip(id).Values.
func (sc *Scratch) Chip(id int) Draw {
	seed := stats.MixSeed(sc.seed, int64(id)+1)
	sc.rng.Reseed(seed)
	d := Draw{seed: seed}
	for p := Param(0); p < NumParams; p++ {
		d.Values[p] = sc.rng.TruncNormal(sc.spec.Nominal[p], sc.spec.Sigma(p), sc.spec.Bound(p))
	}
	return d
}

// Child draws a sub-region correlated with parent: each parameter is
// redrawn with mean parent.Values[p] and the Table 1 sigma and 3-sigma
// window scaled by factor. label distinguishes siblings; the same
// (parent, factor, label) always yields the same child.
func (sc *Scratch) Child(parent *Draw, factor float64, label int64) Draw {
	seed := stats.MixSeed(parent.seed, label)
	d := Draw{seed: seed}
	if factor <= 0 {
		d.Values = parent.Values
		return d
	}
	sc.rng.Reseed(seed)
	for p := Param(0); p < NumParams; p++ {
		d.Values[p] = sc.rng.TruncNormal(parent.Values[p], factor*sc.spec.Sigma(p), factor*sc.spec.Bound(p))
	}
	return d
}

// Way returns the draw for way i (0..3) of the cache, using the
// 2x2-mesh way factors. Way 0 is perfectly correlated with the chip
// root (it *is* the reference region).
func (sc *Scratch) Way(parent *Draw, i int) Draw {
	return sc.Child(parent, sc.fact.WayFactor(i), int64(1000+i))
}

// Block returns the draw for a circuit block (decoder, precharge, cell
// array, sense amplifiers, output drivers) of a region.
func (sc *Scratch) Block(parent *Draw, label int64) Draw {
	return sc.Child(parent, sc.fact.Block, 2000+label)
}

// Row returns the draw for one row (word line) of a bank.
func (sc *Scratch) Row(parent *Draw, label int64) Draw {
	return sc.Child(parent, sc.fact.Row, 3000+label)
}
