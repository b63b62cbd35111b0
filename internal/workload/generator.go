package workload

import (
	"fmt"
	"math"

	"yieldcache/internal/stats"
)

// OpClass is the functional class of a synthetic instruction.
type OpClass int

const (
	IALU OpClass = iota
	IMul
	IDiv
	FAdd
	FMul
	FDiv
	Load
	Store
	Branch
	NumOpClasses
)

var opNames = [NumOpClasses]string{"ialu", "imul", "idiv", "fadd", "fmul", "fdiv", "load", "store", "branch"}

func (o OpClass) String() string {
	if o < 0 || o >= NumOpClasses {
		return fmt.Sprintf("OpClass(%d)", int(o))
	}
	return opNames[o]
}

// Instr is one dynamic instruction of a synthetic trace.
type Instr struct {
	Op OpClass
	// Src1Dist/Src2Dist are the distances (in dynamic instructions) back
	// to the producers of the source operands; 0 means no register
	// dependence on recent instructions.
	Src1Dist, Src2Dist int
	// Addr is the data address of a load or store.
	Addr uint64
	// PC is the instruction address (drives the I-cache).
	PC uint64
	// Taken and Mispredicted describe branch outcome and prediction.
	Taken, Mispredicted bool
}

// Generator produces the deterministic instruction stream of one
// benchmark profile.
type Generator struct {
	p   Profile
	rng *stats.RNG

	pc        uint64
	codeBase  uint64
	loopStart uint64
	loopLeft  int

	// data regions
	hotBase     uint64
	coldBase    uint64
	streamPtrs  []uint64 // strided walkers
	streamReuse []int    // remaining touches of the current element
	streamIdx   int
}

// streamStagger offsets each stream's walk so that the concurrently
// active stream blocks land in different cache sets. Real array bases
// are effectively random relative to each other; without the stagger all
// walkers would advance in lockstep through identical set indices and
// pile into a single set — an artefact that makes associativity look far
// more precious than it is.
func streamStagger(i int) uint64 {
	return uint64(i) * 2080 // 65 cache blocks: co-prime-ish with 128 sets
}

// Region base addresses keep the synthetic address spaces of code, hot
// data, cold data and streams disjoint.
const (
	codeRegion   = 0x0040_0000
	hotRegion    = 0x1000_0000
	coldRegion   = 0x2000_0000
	streamRegion = 0x4000_0000
	numStreams   = 4
)

// NewGenerator returns a generator for profile p; the stream is a pure
// function of (p, seed).
func NewGenerator(p Profile, seed int64) *Generator {
	g := &Generator{
		p:        p,
		rng:      stats.NewRNG(seed),
		pc:       codeRegion,
		codeBase: codeRegion,
		hotBase:  hotRegion,
		coldBase: coldRegion,
	}
	g.streamPtrs = make([]uint64, numStreams)
	g.streamReuse = make([]int, numStreams)
	for i := range g.streamPtrs {
		g.streamPtrs[i] = streamRegion + uint64(i)<<24 + streamStagger(i)
	}
	g.loopStart = g.pc
	g.loopLeft = g.loopLen()
	return g
}

func (g *Generator) loopLen() int {
	// Loop bodies of 20..200 instructions walked repeatedly.
	return 20 + g.rng.Intn(180)
}

// geometric returns 1 + Geom(p): the dependence distance draw.
func (g *Generator) geometric(p float64) int {
	if p <= 0 {
		return 1
	}
	u := g.rng.Float64()
	// Inverse CDF of the geometric distribution on {0, 1, ...}.
	k := int(math.Floor(math.Log(1-u) / math.Log(1-p)))
	if k < 0 {
		k = 0
	}
	return 1 + k
}

// dataAddr draws the next data address per the locality model.
func (g *Generator) dataAddr() uint64 {
	r := g.rng.Float64()
	switch {
	case r < g.p.StrideFrac:
		// Sequential walk of one of the streams: each element is touched
		// StrideReuse times, then the walker advances 8 bytes, wrapping
		// within the working set so the footprint stays bounded.
		i := g.streamIdx
		g.streamIdx = (g.streamIdx + 1) % numStreams
		if g.streamReuse[i] > 0 {
			g.streamReuse[i]--
			return g.streamPtrs[i]
		}
		reuse := g.p.StrideReuse
		if reuse < 1 {
			reuse = 1
		}
		g.streamReuse[i] = reuse - 1
		g.streamPtrs[i] += 8
		span := uint64(g.p.WorkingSetKB) * 1024 / numStreams
		if span == 0 {
			span = 4096
		}
		base := streamRegion + uint64(i)<<24
		if g.streamPtrs[i] >= base+span {
			g.streamPtrs[i] = base + streamStagger(i)
		}
		return g.streamPtrs[i]
	case r < g.p.StrideFrac+(1-g.p.StrideFrac)*g.p.HotFrac:
		// Hot-set reuse is heavily skewed (stack frames, top-of-heap
		// structures): drawing the offset as span*u^4 concentrates most
		// accesses in a small core while the tail still touches the whole
		// hot set. This is what makes real codes lose only ~1% CPI when a
		// cache way is disabled — a uniform draw would churn the whole
		// set and overstate the YAPD penalty by an order of magnitude.
		span := float64(g.p.HotSetKB) * 1024
		if span == 0 {
			span = 1024
		}
		u := g.rng.Float64()
		off := uint64(span * u * u * u * u)
		return g.hotBase + off&^7
	default:
		span := uint64(g.p.WorkingSetKB) * 1024
		if span == 0 {
			span = 4096
		}
		return g.coldBase + (uint64(g.rng.Int63()) % span &^ 7)
	}
}

// Next returns the next dynamic instruction.
func (g *Generator) Next() Instr {
	in := Instr{PC: g.pc}
	r := g.rng.Float64()
	p := g.p
	switch {
	case r < p.LoadFrac:
		in.Op = Load
		in.Addr = g.dataAddr()
	case r < p.LoadFrac+p.StoreFrac:
		in.Op = Store
		in.Addr = g.dataAddr()
	case r < p.LoadFrac+p.StoreFrac+p.BranchFrac:
		in.Op = Branch
	case r < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac:
		in.Op = FAdd
	case r < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac+p.MulFrac:
		if p.Class == FloatingPoint {
			in.Op = FMul
		} else {
			in.Op = IMul
		}
	case r < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac+p.MulFrac+p.DivFrac:
		if p.Class == FloatingPoint {
			in.Op = FDiv
		} else {
			in.Op = IDiv
		}
	default:
		in.Op = IALU
	}

	// Register dependences: every consumer reaches back a geometric
	// distance; stores and branches consume (address/condition), loads
	// consume their address register.
	in.Src1Dist = g.geometric(p.DepGeomP)
	if g.rng.Float64() < p.SecondSrcProb {
		in.Src2Dist = g.geometric(p.DepGeomP)
	}

	// Advance the PC: straight-line inside the loop body, back edge (or
	// occasional fresh loop elsewhere in the code footprint) at the end.
	g.pc += 4
	g.loopLeft--
	if in.Op == Branch {
		in.Taken = g.loopLeft <= 0
		in.Mispredicted = g.rng.Float64() < p.MispredictRate
	}
	if g.loopLeft <= 0 {
		if g.rng.Float64() < 0.25 {
			// Move to a different loop in the code footprint.
			span := uint64(p.CodeKB) * 1024
			if span == 0 {
				span = 1024
			}
			g.loopStart = g.codeBase + (uint64(g.rng.Int63())%span)&^3
		}
		g.pc = g.loopStart
		g.loopLeft = g.loopLen()
	}
	return in
}
