package sram

import (
	"yieldcache/internal/circuit"
	"yieldcache/internal/variation"
)

// Block labels for the circuit blocks that receive independent (but
// spatially correlated) variation draws, matching the paper's list:
// "the decoder, pre-charge circuits, memory cell arrays, sense amplifiers
// and output drivers". The decoder and output drivers are way-level
// structures; precharge and sense amplifiers exist per bank.
const (
	blockDecoder  = 0
	blockOutput   = 1
	blockPreBase  = 200 // + bank index: the bank's precharge circuits
	blockSenseAmp = 300 // + bank index: the bank's sense amplifiers
)

// HYAPDLatencyPenalty is the average access-latency increase of the
// H-YAPD decoder organisation measured by the paper's HSPICE simulations
// (Section 4.2: "a 2.5% increase in the access latencies on average").
const HYAPDLatencyPenalty = 1.025

// senseOffsetScale converts the sampled sense-amp pair mismatch (a
// full-range independent Vt deviation) into the margin-eating offset.
// The pair's differential offset is larger than a single device's random
// component, and the slowest of the bank's many amplifiers governs.
const senseOffsetScale = 2.8

// replicaTracking is the fraction of the chip-common process deviation
// that the replica-bitline sense-timing circuit compensates; the residue
// still erodes sense margin on globally slow chips.
const replicaTracking = 0.50

// bandFactor is the correlation factor of a horizontal band (one row
// region at a fixed die y-coordinate, spanning all ways) relative to the
// chip. Spatial correlation is location-dependent (Section 2): the same
// row range of different ways sits at the same vertical position, so all
// ways see nearly the same band parameters — this is exactly the
// "either all the upper-most rows or all the middle rows violate"
// behaviour that motivates H-YAPD (Section 4.2). The paper does not
// publish this factor; it sits between the row factor (0.05) and the
// way factors (0.375..0.7125).
const bandFactor = 0.50

// Model evaluates sampled chips into cache measurements.
type Model struct {
	Tech circuit.Tech
	Geom Geometry
	// HYAPD selects the horizontal-power-down decoder organisation,
	// which costs HYAPDLatencyPenalty on every access path. Its
	// measurement is always derived from the regular organisation's
	// (DeriveHYAPD), never evaluated on its own.
	HYAPD bool
}

// NewModel returns a model of the paper's 16 KB cache on the given
// technology.
func NewModel(tech circuit.Tech, hyapd bool) *Model {
	return &Model{Tech: tech, Geom: Paper16KB(), HYAPD: hyapd}
}

// PathMeasurement is the evaluated delay of one representative critical
// path (one row position of one bank).
type PathMeasurement struct {
	Bank, Slot int
	DelayPS    float64
}

// BankMeasurement aggregates one bank of one way.
type BankMeasurement struct {
	Paths      []PathMeasurement
	MaxPS      float64 // slowest path through this bank
	ArrayLeakW float64 // leakage of this bank's cell array
}

// WayMeasurement aggregates one way.
type WayMeasurement struct {
	Banks       []BankMeasurement
	PeriphLeakW float64 // decoder/precharge/sense/driver leakage (not removable by H-YAPD)
	LatencyPS   float64 // slowest path through the way
	LeakageW    float64 // array + periphery
}

// CacheMeasurement is the full evaluation of one sampled chip's cache.
type CacheMeasurement struct {
	Ways      []WayMeasurement
	LatencyPS float64 // slowest way (the cache access latency of Section 5.1)
	LeakageW  float64 // sum over ways
}

// Prepare sizes dst for geometry g, reusing slice capacity when it is
// already there and zeroing every aggregate the kernel accumulates
// into. After one measurement a re-Prepared value costs no allocation.
func Prepare(dst *CacheMeasurement, g Geometry) {
	if cap(dst.Ways) >= g.Ways {
		dst.Ways = dst.Ways[:g.Ways]
	} else {
		dst.Ways = make([]WayMeasurement, g.Ways)
	}
	for w := range dst.Ways {
		wm := &dst.Ways[w]
		wm.PeriphLeakW, wm.LatencyPS, wm.LeakageW = 0, 0, 0
		if cap(wm.Banks) >= g.BanksPerWay {
			wm.Banks = wm.Banks[:g.BanksPerWay]
		} else {
			wm.Banks = make([]BankMeasurement, g.BanksPerWay)
		}
		for b := range wm.Banks {
			bm := &wm.Banks[b]
			bm.MaxPS, bm.ArrayLeakW = 0, 0
			if cap(bm.Paths) >= g.PathsPerBank {
				bm.Paths = bm.Paths[:g.PathsPerBank]
			} else {
				bm.Paths = make([]PathMeasurement, g.PathsPerBank)
			}
		}
	}
	dst.LatencyPS, dst.LeakageW = 0, 0
}

// Evaluator is the single-pass measurement engine: one variation
// scratch plus the reusable draw and derived-column storage of the
// batched structure-of-arrays kernel (kernel.go), so that a warm
// Measure, or a Sample into Draws and its Eval, does zero heap
// allocations. Evaluators are not safe for concurrent use; the
// population builder gives each worker its own.
type Evaluator struct {
	m        *Model
	sc       *variation.Scratch
	ks       *kernelScratch       // pooled draw + column buffers (Release returns them)
	stageNom [][NumStages]float64 // nominal stage delays per (bank, path)
	ap       alphaPow             // the model's Alpha, split once for the kernel's pows
}

// NewEvaluator returns an evaluator drawing from sc. The scratch's spec
// and correlation factors must match the population being measured.
// Kernel buffers come from a pool; call Release when the evaluator is
// done to recycle them.
func (m *Model) NewEvaluator(sc *variation.Scratch) *Evaluator {
	ks := kernelPool.Get().(*kernelScratch)
	if ks.stageNom == nil || ks.stageGeom != m.Geom {
		ks.stageNom = stageNominals(m.Geom)
		ks.stageGeom = m.Geom
	}
	return &Evaluator{
		m:        m,
		sc:       sc,
		ks:       ks,
		stageNom: ks.stageNom,
		ap:       newAlphaPow(m.Tech.Alpha),
	}
}

// Scratch returns the evaluator's variation scratch (chip root draws
// come from it so that the whole pipeline shares one generator).
func (e *Evaluator) Scratch() *variation.Scratch { return e.sc }

// Measure evaluates the model's cache organisation on the chip
// described by the root draw, into dst. Steady-state calls are
// allocation-free once dst has been through one measurement (or
// Prepare) at this geometry. It runs the batched kernel at width 1;
// the result is bit-identical to the scalar reference path. An H-YAPD
// model measures the regular organisation into the pooled kernel
// scratch and derives dst from it (DeriveHYAPD), as every H-YAPD
// population is derived.
func (e *Evaluator) Measure(chip *variation.Draw, dst *CacheMeasurement) {
	ds := &e.ks.ds
	ds.IDs = ds.IDs[:0]
	ds.Chips.Resize(1)
	ds.Chips.SetLane(0, chip)
	e.sampleRegions(ds)
	reg := dst
	if e.m.HYAPD {
		reg = &e.ks.reg
	}
	Prepare(reg, e.m.Geom)
	e.ks.one[0] = reg
	e.eval(ds, e.ks.one[:], true, true, nil)
	e.ks.one[0] = nil
	if e.m.HYAPD {
		DeriveHYAPD(reg, dst, e.m.Geom)
	}
}

// DeriveHYAPD fills hor with the H-YAPD organisation's measurement of
// the chip already measured (regular organisation) in reg: every path
// delay takes the constant decoder penalty, maxima are re-selected from
// the scaled delays, and leakage carries over unchanged. It is the only
// place the penalty is applied, so both organisations of a chip always
// come from the same draws; the scalar reference (measureRef in
// reference_test.go) applies the penalty inline and pins this
// derivation bit for bit.
func DeriveHYAPD(reg, hor *CacheMeasurement, g Geometry) {
	Prepare(hor, g)
	for w := range reg.Ways {
		rw, hw := &reg.Ways[w], &hor.Ways[w]
		for b := range rw.Banks {
			rb, hb := &rw.Banks[b], &hw.Banks[b]
			for p := range rb.Paths {
				delay := rb.Paths[p].DelayPS * HYAPDLatencyPenalty
				hb.Paths[p] = PathMeasurement{Bank: rb.Paths[p].Bank, Slot: rb.Paths[p].Slot, DelayPS: delay}
				if delay > hb.MaxPS {
					hb.MaxPS = delay
				}
			}
			hb.ArrayLeakW = rb.ArrayLeakW
			if hb.MaxPS > hw.LatencyPS {
				hw.LatencyPS = hb.MaxPS
			}
		}
		hw.PeriphLeakW = rw.PeriphLeakW
		hw.LeakageW = rw.LeakageW
		if hw.LatencyPS > hor.LatencyPS {
			hor.LatencyPS = hw.LatencyPS
		}
		hor.LeakageW += hw.LeakageW
	}
}

// Measure evaluates the cache on the chip described by the variation
// root node. It is the tree-based compatibility entry point; the
// population builder uses an Evaluator directly to amortise scratch
// state across chips.
func (m *Model) Measure(chip *variation.Node) CacheMeasurement {
	e := m.NewEvaluator(chip.NewScratch())
	defer e.Release()
	d := chip.AsDraw()
	var cm CacheMeasurement
	e.Measure(&d, &cm)
	return cm
}

// LatencyWithoutBank returns the way's slowest path when physical bank b
// (one horizontal region) is disabled. Used by the H-YAPD scheme.
func (w WayMeasurement) LatencyWithoutBank(b int) float64 {
	max := 0.0
	for i, bm := range w.Banks {
		if i == b {
			continue
		}
		if bm.MaxPS > max {
			max = bm.MaxPS
		}
	}
	return max
}

// LeakageWithoutBank returns the way's leakage when physical bank b is
// disabled. Only the bank's cell array is removed: the paper notes that
// with horizontal power-down "some parts of the decoder as well as
// pre-charge and sense amplifier circuits cannot be turned off
// completely", so the periphery keeps leaking.
func (w WayMeasurement) LeakageWithoutBank(b int) float64 {
	return w.LeakageW - w.Banks[b].ArrayLeakW
}
