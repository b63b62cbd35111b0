package sram

import (
	"sync"

	"yieldcache/internal/circuit"
	"yieldcache/internal/variation"
)

// This file is the structure-of-arrays measurement kernel. The scalar
// reference (measureRef/measureWay in reference_test.go, the parity
// tests' oracle) walks one chip's variation tree node by node,
// re-deriving every circuit factor per stage through package circuit;
// the batched kernel instead samples the same region node of several
// chips into flat columns (variation.Batch), derives each circuit factor
// once per region in straight-line loops over those columns, and
// assembles the per-path delays and per-bank leakages from the derived
// columns.
//
// Bit-identity argument (the golden seed-2006 tables must not move):
//   - Every region node's draw stream is self-contained — its seed is
//     MixSeed(parent seed, label) and drawing a child never consumes
//     the parent's generator — so nodes can be sampled in any order,
//     including column-major across chips, without changing any value.
//   - Per-chip float arithmetic keeps the exact expression shapes and
//     accumulation order of the scalar path: stage delays are summed in
//     stage order, bank/path/way aggregates in ascending index order,
//     and factor computations are hoisted only as whole expressions
//     (common-subexpression reuse of a pure function is exact; no term
//     is reassociated or fused).
//   - Every alpha-power drive factor goes through alphaPow.powCol
//     (alphapow.go), which splits Alpha once per evaluator exactly as
//     math.Pow splits its exponent (yi + yf, with pow's yf > 0.5 shift)
//     and multiplies Exp(yf*Log x) by x^yi in pow's order. Pow applies
//     the powers of two of x separately (Frexp/Ldexp); scaling by a
//     power of two commutes with rounding while every intermediate is
//     normal, which the helper's input range guarantees, and any other
//     input or exponent calls math.Pow itself.
//   - The sense margins are fillMargin: circuit.SenseMargin's drive
//     factor with that pow, then the same circuit.MarginFromDrive.
//   - Every Exp and Log is a column call, expCol or logCol (vmath.go).
//     On amd64 they run four lanes at once through the same
//     instruction sequence as the math package's archExp (its FMA
//     path) and archLog. Each YMM lane rounds its IEEE operation, fused
//     ones included, exactly as the scalar instruction does, and
//     VCVTPD2DQ rounds x*log2e to an integer under MXCSR exactly as
//     CVTSD2SL does. Lanes off the scalar code's straight-line path
//     call math.Exp or math.Log. The loops run only when CPUID and
//     XGETBV report AVX2 and FMA with OS-enabled YMM state and an
//     init-time cross-check against math.Exp and math.Log passes;
//     otherwise every lane calls the scalar function.

// BatchWidth is the number of chips the population builder evaluates
// per kernel invocation. Eight chips keep every derived column of a
// region (8 lanes x 16 bank-paths) inside the L1 cache while giving the
// fill loops enough trip count to amortise their setup.
const BatchWidth = 8

// WayDraws holds the sampled variation batches of one way: the way
// node itself, its circuit blocks, the sense-amp mismatch children, and
// this way's row instances of the chip-level horizontal bands. Lane
// order is chip-major: chip c's bank b lands in lane c*BanksPerWay+b,
// and its path p in lane (c*BanksPerWay+b)*PathsPerBank+p.
type WayDraws struct {
	Way      variation.Batch // the way region (parent of the blocks)
	Dec      variation.Batch // decoder block, one lane per chip
	Out      variation.Batch // output-driver block, one lane per chip
	Pre      variation.Batch // precharge blocks, one lane per (chip, bank)
	SA       variation.Batch // sense-amp blocks, one lane per (chip, bank)
	MM       variation.Batch // sense-amp pair mismatch, one lane per (chip, bank)
	Rows     variation.Batch // this way's row per band, one lane per (chip, bank, path)
	BandRows variation.Batch // this way's row per bank-band, one lane per (chip, bank)
}

// DrawSet is the complete set of variation draws for a batch of chips:
// everything the kernel needs to evaluate them under any technology.
// A DrawSet can be retained and re-evaluated (the delta-build path
// shares draws across sweep points — common random numbers), and its
// buffers are reused across Sample calls.
type DrawSet struct {
	IDs       []int           // chip ids, lane order
	Chips     variation.Batch // root draws, one lane per chip
	Bands     variation.Batch // horizontal bands, one lane per (chip, bank, path)
	BankBands variation.Batch // bank aggregate bands, one lane per (chip, bank)
	Ways      []WayDraws      // per way
}

// Len returns the number of chips in the set.
func (ds *DrawSet) Len() int { return ds.Chips.Len() }

// Draws returns the evaluator's own draw set: a destination for Sample
// whose draws need not outlive the next batch, reused so that a warm
// Sample into it and Eval of it allocate nothing. Measure overwrites
// it, and it goes back to the pool with Release.
func (e *Evaluator) Draws() *DrawSet { return &e.ks.ds }

// Sample draws the full variation tree of the given chips into ds,
// reusing its buffers. Lane l holds chip ids[l]; every draw is
// bit-identical to the scalar Scratch walk of the same chip.
func (e *Evaluator) Sample(ids []int, ds *DrawSet) {
	ds.IDs = append(ds.IDs[:0], ids...)
	e.sc.ChipBatch(ids, &ds.Chips)
	e.sampleRegions(ds)
}

// sampleRegions draws every region batch below the already-filled chip
// roots, mirroring the scalar measure/measureWay sampling structure.
func (e *Evaluator) sampleRegions(ds *DrawSet) {
	g := e.m.Geom
	sc := e.sc
	nb, np := g.BanksPerWay, g.PathsPerBank
	sc.ChildrenBatch(&ds.Chips, bandFactor, 5000, nb*np, &ds.Bands)
	sc.ChildrenBatch(&ds.Chips, bandFactor, 6000, nb, &ds.BankBands)
	if len(ds.Ways) != g.Ways {
		ds.Ways = make([]WayDraws, g.Ways)
	}
	for w := 0; w < g.Ways; w++ {
		wd := &ds.Ways[w]
		sc.WayBatch(&ds.Chips, w, &wd.Way)
		sc.BlocksBatch(&wd.Way, blockDecoder, 1, &wd.Dec)
		sc.BlocksBatch(&wd.Way, blockOutput, 1, &wd.Out)
		sc.BlocksBatch(&wd.Way, blockPreBase, nb, &wd.Pre)
		sc.BlocksBatch(&wd.Way, blockSenseAmp, nb, &wd.SA)
		sc.ChildrenBatch(&wd.SA, 1.0, 9000, 1, &wd.MM)
		sc.RowsBatch(&ds.Bands, int64(w), &wd.Rows)
		sc.RowsBatch(&ds.BankBands, int64(w), &wd.BandRows)
	}
}

// kernelScratch is the draw and derived-column storage of the batched
// kernel, reused across calls so a warm evaluation allocates nothing.
// Columns are refilled per way; sizes are per-lane (n), per bank lane
// (n*banks) or per path lane (n*banks*paths). Scratches are recycled
// through kernelPool so that building a population costs a pool Get
// instead of re-allocating the ~40 column slices per evaluator.
type kernelScratch struct {
	ds  DrawSet              // draw storage for Measure and Draws
	one [1]*CacheMeasurement // width-1 view for Measure
	reg CacheMeasurement     // regular lane an H-YAPD Measure derives from

	// stageNom caches stageNominals for stageGeom so a recycled scratch
	// hands the table to its next evaluator without reallocating it.
	stageNom  [][NumStages]float64
	stageGeom Geometry

	chipDL, chipVt []float64 // n

	decGate, decRC   []float64 // n
	outGate, outRC   []float64 // n
	decLeak, outLeak []float64 // n

	preCap, preLeak []float64 // n*banks
	saDL, saVt      []float64 // n*banks
	saGate          []float64 // n*banks
	saLeak, offset  []float64 // n*banks
	bandRowLeak     []float64 // n*banks

	cellDL, cellVt      []float64 // n*banks*paths
	cellGate, cellDrive []float64 // n*banks*paths
	cellRC, cellLeak    []float64 // n*banks*paths

	// The sense devices of every path lane and their margins.
	senseDL, senseVt, margin []float64 // n*banks*paths

	// Device columns that only the fill computing them reads, e.g. a
	// decoder's drive or a leaking block's gate-length delta.
	devDL, devVt, devDrive []float64 // n*banks*paths
}

// kernelPool recycles kernel scratches across evaluators. The buffers
// carry no values between uses (every lane is overwritten before it is
// read), only warm capacity; Release returns an evaluator's scratch.
var kernelPool = sync.Pool{New: func() any { return new(kernelScratch) }}

// Release returns the evaluator's pooled kernel buffers for reuse by
// future evaluators. The evaluator must not be used afterwards. An
// evaluator that is never released simply lets its buffers be garbage
// collected; releasing keeps steady-state population builds at a
// handful of allocations.
func (e *Evaluator) Release() {
	if e.ks != nil {
		e.ks.one[0] = nil
		kernelPool.Put(e.ks)
		e.ks = nil
	}
}

// grow returns s resized to n lanes, reusing capacity when present.
func grow(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func (ks *kernelScratch) size(n, nb, np int) {
	ks.chipDL = grow(ks.chipDL, n)
	ks.chipVt = grow(ks.chipVt, n)
	ks.decGate = grow(ks.decGate, n)
	ks.decRC = grow(ks.decRC, n)
	ks.outGate = grow(ks.outGate, n)
	ks.outRC = grow(ks.outRC, n)
	ks.decLeak = grow(ks.decLeak, n)
	ks.outLeak = grow(ks.outLeak, n)
	bn := n * nb
	ks.preCap = grow(ks.preCap, bn)
	ks.preLeak = grow(ks.preLeak, bn)
	ks.saDL = grow(ks.saDL, bn)
	ks.saVt = grow(ks.saVt, bn)
	ks.saGate = grow(ks.saGate, bn)
	ks.saLeak = grow(ks.saLeak, bn)
	ks.offset = grow(ks.offset, bn)
	ks.bandRowLeak = grow(ks.bandRowLeak, bn)
	pn := bn * np
	ks.cellDL = grow(ks.cellDL, pn)
	ks.cellVt = grow(ks.cellVt, pn)
	ks.cellGate = grow(ks.cellGate, pn)
	ks.cellDrive = grow(ks.cellDrive, pn)
	ks.cellRC = grow(ks.cellRC, pn)
	ks.cellLeak = grow(ks.cellLeak, pn)
	ks.senseDL = grow(ks.senseDL, pn)
	ks.senseVt = grow(ks.senseVt, pn)
	ks.margin = grow(ks.margin, pn)
	ks.devDL = grow(ks.devDL, pn)
	ks.devVt = grow(ks.devVt, pn)
	ks.devDrive = grow(ks.devDrive, pn)
}

// stageNominals precomputes the nominal stage delays of every
// representative path, indexed [bank*PathsPerBank+path][stage]. The
// kernel hardcodes the canonical seven-stage path structure of
// PathStages (addr-bus, decode, global-wl, local-wl, bitline, sense,
// output); only the nominal picoseconds vary with routing distance.
func stageNominals(g Geometry) [][NumStages]float64 {
	sn := make([][NumStages]float64, g.BanksPerWay*g.PathsPerBank)
	totalRows := float64(g.BanksPerWay * g.RowsPerBank)
	for b := 0; b < g.BanksPerWay; b++ {
		for p := 0; p < g.PathsPerBank; p++ {
			rowIdx := p * g.RowsPerBank / g.PathsPerBank
			distFrac := (float64(b*g.RowsPerBank) + float64(rowIdx) + 0.5) / totalRows
			st := PathStages(distFrac)
			for s := range st {
				sn[b*g.PathsPerBank+p][s] = st[s].NominalPS
			}
		}
	}
	return sn
}

// fillDevice derives the device columns (fractional gate-length delta,
// threshold in volts) of a batch, matching circuit.DeviceOf lane-wise.
// dl and vt may be longer than the batch.
func fillDevice(spec *variation.Spec, b *variation.Batch, dl, vt []float64) {
	lc, vc := b.Col[variation.Leff], b.Col[variation.Vt]
	for l, v := range lc {
		dl[l] = spec.DeltaOf(variation.Leff, v)
		vt[l] = vc[l] / 1000
	}
}

// fillDeviceDelay derives the delay-side device columns from dl/vt
// columns already produced by fillDevice: gate-delay factor, matching
// Device.GateDelayFactor lane-wise (one pow per lane instead of one per
// stage — exact, because the factor is a pure function of the draw),
// and drive factor (cells need both; the drive also feeds the bitline
// stage). gate sets the length; dl, vt and drive may be longer.
func fillDeviceDelay(t circuit.Tech, ap alphaPow, dl, vt, gate, drive []float64) {
	drive = drive[:len(gate)]
	nominal := t.Vdd - t.VtNominal
	maxVt := t.Vdd - 0.05
	for l := range drive {
		evt := vt[l] + t.DIBL*dl[l]
		if evt > maxVt {
			evt = maxVt
		}
		drive[l] = (t.Vdd - evt) / nominal
	}
	ap.powCol(drive, gate)
	for l, x := range drive {
		d := dl[l]
		dr := (1 / (1 + d)) * x
		drive[l] = dr
		gate[l] = (1 + 0.5*d) / dr
	}
}

// fillDeviceLeak derives the leakage factor column of a batch, matching
// Device.LeakageFactor lane-wise. dl is a scratch column of at least
// the batch's length.
func fillDeviceLeak(t circuit.Tech, spec *variation.Spec, b *variation.Batch, leak, dl []float64) {
	lc, vc := b.Col[variation.Leff], b.Col[variation.Vt]
	maxVt := t.Vdd - 0.05
	for l := range leak {
		d := spec.DeltaOf(variation.Leff, lc[l])
		evt := vc[l]/1000 + t.DIBL*d
		if evt > maxVt {
			evt = maxVt
		}
		dvt := evt - t.VtNominal
		dl[l] = d
		leak[l] = -dvt / t.SubVtSlope
	}
	expCol(leak)
	for l, x := range leak {
		leak[l] = (1 / (1 + dl[l])) * x
	}
}

// fillWireRC derives the distributed-RC factor column of a batch,
// matching Wire.RCFactor lane-wise.
func fillWireRC(t circuit.Tech, spec *variation.Spec, b *variation.Batch, rc []float64) {
	wc, tc, hc := b.Col[variation.W], b.Col[variation.T], b.Col[variation.H]
	for l := range rc {
		dw := spec.DeltaOf(variation.W, wc[l])
		dt := spec.DeltaOf(variation.T, tc[l])
		dh := spec.DeltaOf(variation.H, hc[l])
		res := 1 / ((1 + dw) * (1 + dt))
		ground := (1 + dw) / (1 + dh)
		spacing := 1 - dw
		if spacing < 0.05 {
			spacing = 0.05
		}
		coupling := (1 + dt) / spacing
		capf := (1-t.CouplingFrac)*ground + t.CouplingFrac*coupling
		rc[l] = res * capf
	}
}

// fillWireCap derives the capacitance factor column of a batch,
// matching Wire.CapFactor lane-wise (the bitline stage consumes the
// precharge wire's capacitance without its resistance).
func fillWireCap(t circuit.Tech, spec *variation.Spec, b *variation.Batch, capCol []float64) {
	wc, tc, hc := b.Col[variation.W], b.Col[variation.T], b.Col[variation.H]
	for l := range capCol {
		dw := spec.DeltaOf(variation.W, wc[l])
		dt := spec.DeltaOf(variation.T, tc[l])
		dh := spec.DeltaOf(variation.H, hc[l])
		ground := (1 + dw) / (1 + dh)
		spacing := 1 - dw
		if spacing < 0.05 {
			spacing = 0.05
		}
		coupling := (1 + dt) / spacing
		capCol[l] = (1-t.CouplingFrac)*ground + t.CouplingFrac*coupling
	}
}

// fillOffset derives the sense-amp pair offset column: |mismatch Vt -
// systematic sense-amp Vt|, matching the scalar offset computation.
func fillOffset(mm *variation.Batch, saVt, offset []float64) {
	mmVt := mm.Col[variation.Vt]
	for l := range offset {
		off := mmVt[l]/1000 - saVt[l]
		if off < 0 {
			off = -off
		}
		offset[l] = off
	}
}

// LeakState caches the technology-independent leakage aggregates of an
// evaluated batch: the per-(chip, way, bank) band/slot leakage mix and
// the per-(chip, way) periphery leakage-factor sum. Rescaling these by
// a new CellLeakage/PeripheryLeakFrac reproduces a full rebuild bit for
// bit, because the multiplication chain is preserved and the cached
// values are the exact floats the full build computes.
type LeakState struct {
	// Mix is 0.7*bandLeak + 0.3*slotLeak per bank, indexed
	// (chip*Ways+way)*BanksPerWay+bank.
	Mix []float64
	// PeriphSum is the accumulated periphery leakage-factor sum per way,
	// indexed chip*Ways+way.
	PeriphSum []float64
	// PeriphBlocks is the periphery block-count normaliser (identical
	// for every way of every chip).
	PeriphBlocks float64
}

func (ls *LeakState) resize(n int, g Geometry) {
	ls.Mix = grow(ls.Mix, n*g.Ways*g.BanksPerWay)
	ls.PeriphSum = grow(ls.PeriphSum, n*g.Ways)
}

// RetainedBatches returns a DrawSet and a LeakState for every
// BatchWidth-chip batch of n chips at geometry g, batch k holding chips
// [k·BatchWidth, min((k+1)·BatchWidth, n)). Their columns are carved
// from a few flat slabs, one per column kind, so Sample and Eval into
// them allocate nothing: retaining a population's draws costs a handful
// of allocations instead of a few hundred per batch.
func RetainedBatches(n int, g Geometry) ([]DrawSet, []LeakState) {
	nw, nb, np := g.Ways, g.BanksPerWay, g.BanksPerWay*g.PathsPerBank
	// Variation lanes per chip, as sampleRegions draws them: the root,
	// the bands and bank bands, and per way the way, decoder and output
	// blocks, four per-bank batches and the rows.
	lanes := 1 + np + nb + nw*(3+4*nb+np)
	batches := (n + BatchWidth - 1) / BatchWidth
	slab := variation.NewSlab(n * lanes)
	ids := make([]int, n)
	ways := make([]WayDraws, batches*nw)
	leak := make([]float64, n*nw*(nb+1))
	sets := make([]DrawSet, batches)
	leaks := make([]LeakState, batches)
	for k := range sets {
		c := min(BatchWidth, n-k*BatchWidth)
		ds := &sets[k]
		ds.IDs, ids = ids[:0:c], ids[c:]
		ds.Chips.Carve(c, slab)
		ds.Bands.Carve(c*np, slab)
		ds.BankBands.Carve(c*nb, slab)
		ds.Ways, ways = ways[:nw:nw], ways[nw:]
		for w := range ds.Ways {
			wd := &ds.Ways[w]
			wd.Way.Carve(c, slab)
			wd.Dec.Carve(c, slab)
			wd.Out.Carve(c, slab)
			wd.Pre.Carve(c*nb, slab)
			wd.SA.Carve(c*nb, slab)
			wd.MM.Carve(c*nb, slab)
			wd.Rows.Carve(c*np, slab)
			wd.BandRows.Carve(c*nb, slab)
		}
		ls := &leaks[k]
		ls.Mix, leak = leak[:0:c*nw*nb], leak[c*nw*nb:]
		ls.PeriphSum, leak = leak[:0:c*nw], leak[c*nw:]
	}
	return sets, leaks
}

// TechParts classifies which parts of the measurement a technology
// change touches; DiffTech computes it for a pair of technologies. The
// delta-build path re-evaluates only the touched parts from retained
// draws and copies or rescales the rest.
type TechParts struct {
	// Delay: path delays must be re-evaluated (drive/gate/wire/sense
	// factors moved).
	Delay bool
	// LeakFactors: per-device leakage factors must be re-evaluated
	// (the exponential's shape moved).
	LeakFactors bool
	// LeakScale: only the leakage magnitude scaling moved; cached
	// LeakState aggregates can be rescaled without touching draws.
	LeakScale bool
}

// Any reports whether the diff touches anything at all.
func (p TechParts) Any() bool { return p.Delay || p.LeakFactors || p.LeakScale }

// DiffTech classifies the difference between two technology models into
// the measurement parts that must be re-evaluated. Unknown differences
// (a Tech field this classification does not know about) conservatively
// re-evaluate everything.
func DiffTech(a, b circuit.Tech) TechParts {
	var p TechParts
	if a.Vdd != b.Vdd || a.VtNominal != b.VtNominal || a.DIBL != b.DIBL {
		// These enter both the drive overdrive and the leakage
		// exponential.
		p.Delay = true
		p.LeakFactors = true
	}
	if a.Alpha != b.Alpha || a.CouplingFrac != b.CouplingFrac || a.DiffusionFrac != b.DiffusionFrac ||
		a.SenseMarginGain != b.SenseMarginGain || a.SenseMarginMax != b.SenseMarginMax {
		p.Delay = true
	}
	if a.SubVtSlope != b.SubVtSlope {
		p.LeakFactors = true
	}
	if a.CellLeakage != b.CellLeakage || a.PeripheryLeakFrac != b.PeripheryLeakFrac {
		p.LeakScale = true
	}
	if a != b && !p.Any() {
		p.Delay, p.LeakFactors, p.LeakScale = true, true, true
	}
	return p
}

// Eval evaluates every lane of ds into the regular organisation, reg.
// When rec is non-nil it captures the leakage aggregates for later
// LeakScale-only delta evaluation.
func (e *Evaluator) Eval(ds *DrawSet, reg []*CacheMeasurement, rec *LeakState) {
	n := ds.Len()
	g := e.m.Geom
	if rec != nil {
		rec.resize(n, g)
	}
	for l := 0; l < n; l++ {
		Prepare(reg[l], g)
	}
	e.eval(ds, reg, true, true, rec)
}

// EvalPair evaluates every lane of ds into both cache organisations:
// the regular one into reg (as Eval, capturing leakage aggregates into
// a non-nil rec) and H-YAPD, derived from the same path delays, into
// hor.
func (e *Evaluator) EvalPair(ds *DrawSet, reg, hor []*CacheMeasurement, rec *LeakState) {
	e.Eval(ds, reg, rec)
	for l := 0; l < ds.Len(); l++ {
		DeriveHYAPD(reg[l], hor[l], e.m.Geom)
	}
}

// EvalDelta re-evaluates a retained DrawSet into the regular
// organisation under the evaluator's technology, reusing base
// measurements of the same draws taken under a technology whose
// difference is parts (from DiffTech): untouched parts are copied from
// base, leak aggregates are rescaled from baseLeak when only the
// leakage scaling moved, and only the touched columns are recomputed.
// The result is bit-identical to Eval of ds under the evaluator's
// technology. Every dst lane is Prepared first, so dst may hold any
// earlier measurement of the same geometry.
func (e *Evaluator) EvalDelta(ds *DrawSet, parts TechParts, base []*CacheMeasurement,
	baseLeak *LeakState, dst []*CacheMeasurement) {
	n := ds.Len()
	g := e.m.Geom
	for l := 0; l < n; l++ {
		Prepare(dst[l], g)
	}
	if !parts.Delay {
		for l := 0; l < n; l++ {
			copyDelayInto(dst[l], base[l])
		}
	}
	if !parts.LeakFactors {
		if parts.LeakScale {
			e.rescaleLeak(baseLeak, dst)
		} else {
			for l := 0; l < n; l++ {
				copyLeakInto(dst[l], base[l])
			}
		}
	}
	if parts.Delay || parts.LeakFactors {
		e.eval(ds, dst, parts.Delay, parts.LeakFactors, nil)
	}
}

// eval is the kernel core: derive factor columns per region, then
// assemble regular-organisation measurements lane by lane in the scalar
// accumulation order (DeriveHYAPD applies the H-YAPD penalty). dst
// lanes must already be Prepared (or, in delta mode, carry the copied
// untouched parts). doDelay/doLeak select which halves run; rec, when
// non-nil, captures leakage aggregates (requires doLeak).
func (e *Evaluator) eval(ds *DrawSet, dst []*CacheMeasurement, doDelay, doLeak bool, rec *LeakState) {
	m := e.m
	t := m.Tech
	g := m.Geom
	spec := e.sc.Spec()
	n := ds.Len()
	nb, np := g.BanksPerWay, g.PathsPerBank
	ks := e.ks
	ks.size(n, nb, np)

	if doDelay {
		fillDevice(spec, &ds.Chips, ks.chipDL, ks.chipVt)
	}
	cellsPerBank := float64(g.CellsPerBank())
	cellsPerWay := float64(g.CellsPerWay())
	nbf := float64(nb)
	npf := float64(np)
	resid := 1 - replicaTracking

	for w := 0; w < g.Ways; w++ {
		wd := &ds.Ways[w]
		if doDelay {
			fillDevice(spec, &wd.Dec, ks.devDL, ks.devVt)
			fillDeviceDelay(t, e.ap, ks.devDL, ks.devVt, ks.decGate, ks.devDrive)
			fillWireRC(t, spec, &wd.Dec, ks.decRC)
			fillDevice(spec, &wd.Out, ks.devDL, ks.devVt)
			fillDeviceDelay(t, e.ap, ks.devDL, ks.devVt, ks.outGate, ks.devDrive)
			fillWireRC(t, spec, &wd.Out, ks.outRC)
			fillWireCap(t, spec, &wd.Pre, ks.preCap)
			fillDevice(spec, &wd.SA, ks.saDL, ks.saVt)
			fillDeviceDelay(t, e.ap, ks.saDL, ks.saVt, ks.saGate, ks.devDrive)
			fillOffset(&wd.MM, ks.saVt, ks.offset)
			fillDevice(spec, &wd.Rows, ks.cellDL, ks.cellVt)
			fillDeviceDelay(t, e.ap, ks.cellDL, ks.cellVt, ks.cellGate, ks.cellDrive)
			fillWireRC(t, spec, &wd.Rows, ks.cellRC)

			for c := 0; c < n; c++ {
				chipDL, chipVt := ks.chipDL[c], ks.chipVt[c]
				for b := 0; b < nb; b++ {
					bl := c*nb + b
					off := ks.offset[bl]
					saDL, saVt := ks.saDL[bl], ks.saVt[bl]
					for p := 0; p < np; p++ {
						pl := bl*np + p
						cellDL, cellVt := ks.cellDL[pl], ks.cellVt[pl]
						// The sense-amp device mirrors the reference
						// expression term for term; see measureWay in
						// reference_test.go for the physics.
						ks.senseDL[pl] = 0.5*(saDL-chipDL) + (cellDL - chipDL) +
							resid*chipDL
						ks.senseVt[pl] = t.VtNominal + senseOffsetScale*off +
							0.5*(saVt-chipVt) + (cellVt - chipVt) +
							resid*(chipVt-t.VtNominal)
					}
				}
			}
			fillMargin(&t, e.ap, ks.senseDL, ks.senseVt, ks.margin, ks.devDrive)

			for c := 0; c < n; c++ {
				cm := dst[c]
				wm := &cm.Ways[w]
				decG, decR := ks.decGate[c], ks.decRC[c]
				outG, outR := ks.outGate[c], ks.outRC[c]
				for b := 0; b < nb; b++ {
					bl := c*nb + b
					bm := &wm.Banks[b]
					saG, preC := ks.saGate[bl], ks.preCap[bl]
					for p := 0; p < np; p++ {
						pl := bl*np + p
						cellDL := ks.cellDL[pl]
						margin := ks.margin[pl]
						sn := &e.stageNom[b*np+p]
						delay := 0.0
						delay += sn[0] * decR                                      // addr-bus
						delay += sn[1] * decG                                      // decode
						delay += sn[2] * decR                                      // global-wl
						delay += sn[3] * (0.5*ks.cellGate[pl] + 0.5*ks.cellRC[pl]) // local-wl
						capf := t.DiffusionFrac*(1+cellDL) + (1-t.DiffusionFrac)*preC
						delay += sn[4] * capf / ks.cellDrive[pl] * margin // bitline
						delay += sn[5] * saG * margin                     // sense
						delay += sn[6] * (0.5*outG + 0.5*outR)            // output
						bm.Paths[p] = PathMeasurement{Bank: b, Slot: p, DelayPS: delay}
						if delay > bm.MaxPS {
							bm.MaxPS = delay
						}
					}
					if bm.MaxPS > wm.LatencyPS {
						wm.LatencyPS = bm.MaxPS
					}
				}
				if wm.LatencyPS > cm.LatencyPS {
					cm.LatencyPS = wm.LatencyPS
				}
			}
		}

		if doLeak {
			fillDeviceLeak(t, spec, &wd.Dec, ks.decLeak, ks.devDL)
			fillDeviceLeak(t, spec, &wd.Out, ks.outLeak, ks.devDL)
			fillDeviceLeak(t, spec, &wd.Pre, ks.preLeak, ks.devDL)
			fillDeviceLeak(t, spec, &wd.SA, ks.saLeak, ks.devDL)
			fillDeviceLeak(t, spec, &wd.Rows, ks.cellLeak, ks.devDL)
			fillDeviceLeak(t, spec, &wd.BandRows, ks.bandRowLeak, ks.devDL)

			for c := 0; c < n; c++ {
				cm := dst[c]
				wm := &cm.Ways[w]
				periphLeakSum := ks.decLeak[c] + ks.outLeak[c]
				periphBlocks := 2.0
				arrayLeakTotal := 0.0
				for b := 0; b < nb; b++ {
					bl := c*nb + b
					bm := &wm.Banks[b]
					periphLeakSum += (ks.preLeak[bl] + ks.saLeak[bl]) / nbf
					periphBlocks += 2.0 / nbf
					bankLeakSum := 0.0
					base := bl * np
					for p := 0; p < np; p++ {
						bankLeakSum += ks.cellLeak[base+p]
					}
					bandLeak := ks.bandRowLeak[bl]
					slotLeak := bankLeakSum / npf
					mix := 0.7*bandLeak + 0.3*slotLeak
					bm.ArrayLeakW = t.CellLeakage * cellsPerBank * mix
					arrayLeakTotal += bm.ArrayLeakW
					if rec != nil {
						rec.Mix[(c*g.Ways+w)*nb+b] = mix
					}
				}
				wm.PeriphLeakW = t.PeripheryLeakFrac * t.CellLeakage *
					cellsPerWay * periphLeakSum / periphBlocks
				wm.LeakageW = arrayLeakTotal + wm.PeriphLeakW
				cm.LeakageW += wm.LeakageW
				if rec != nil {
					rec.PeriphSum[c*g.Ways+w] = periphLeakSum
				}
			}
		}
	}
	if rec != nil {
		// Replicate the scalar accumulation of the block-count
		// normaliser so the cached value matches bit for bit.
		pb := 2.0
		for b := 0; b < nb; b++ {
			pb += 2.0 / nbf
		}
		rec.PeriphBlocks = pb
	}
}

// rescaleLeak fills the leakage side of dst from cached aggregates
// under the evaluator's technology — the LeakScale-only delta path.
// dst must be Prepared (LeakageW zero).
func (e *Evaluator) rescaleLeak(ls *LeakState, dst []*CacheMeasurement) {
	t := e.m.Tech
	g := e.m.Geom
	cellsPerBank := float64(g.CellsPerBank())
	cellsPerWay := float64(g.CellsPerWay())
	nb := g.BanksPerWay
	for c, cm := range dst {
		for w := range cm.Ways {
			wm := &cm.Ways[w]
			arrayLeakTotal := 0.0
			for b := range wm.Banks {
				bm := &wm.Banks[b]
				bm.ArrayLeakW = t.CellLeakage * cellsPerBank * ls.Mix[(c*g.Ways+w)*nb+b]
				arrayLeakTotal += bm.ArrayLeakW
			}
			wm.PeriphLeakW = t.PeripheryLeakFrac * t.CellLeakage *
				cellsPerWay * ls.PeriphSum[c*g.Ways+w] / ls.PeriphBlocks
			wm.LeakageW = arrayLeakTotal + wm.PeriphLeakW
			cm.LeakageW += wm.LeakageW
		}
	}
}

// copyDelayInto copies the delay side of a measurement (path delays and
// all latency maxima) between identically-sized measurements.
func copyDelayInto(dst, src *CacheMeasurement) {
	dst.LatencyPS = src.LatencyPS
	for w := range dst.Ways {
		dw, sw := &dst.Ways[w], &src.Ways[w]
		dw.LatencyPS = sw.LatencyPS
		for b := range dw.Banks {
			db, sb := &dw.Banks[b], &sw.Banks[b]
			db.MaxPS = sb.MaxPS
			copy(db.Paths, sb.Paths)
		}
	}
}

// copyLeakInto copies the leakage side of a measurement between
// identically-sized measurements.
func copyLeakInto(dst, src *CacheMeasurement) {
	dst.LeakageW = src.LeakageW
	for w := range dst.Ways {
		dw, sw := &dst.Ways[w], &src.Ways[w]
		dw.PeriphLeakW = sw.PeriphLeakW
		dw.LeakageW = sw.LeakageW
		for b := range dw.Banks {
			dw.Banks[b].ArrayLeakW = sw.Banks[b].ArrayLeakW
		}
	}
}
