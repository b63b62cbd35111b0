package cpu

import (
	"yieldcache/internal/obs"
	"yieldcache/internal/workload"
)

// Result aggregates one simulation run.
type Result struct {
	Instructions uint64
	Cycles       uint64
	CPI          float64

	L1DAccesses uint64
	L1DMisses   uint64
	L1DSlowHits uint64 // hits served by a slower-than-base way (VACA 5-cycle hits)
	L1IMisses   uint64
	L2Misses    uint64
	MemAccesses uint64

	Forwards       uint64 // loads satisfied by store-to-load forwarding
	BypassStalls   uint64 // dependents that waited in a load-bypass buffer
	BufferConflict uint64 // bypass-buffer structural conflicts
	Replays        uint64 // dependents replayed after a load miss
	Mispredicts    uint64
}

// ring sizes: must exceed ROB and the dependence lookback.
const (
	ringSize = 1024
	lookback = 512
)

type machine struct {
	cfg  Config
	hier *Hierarchy

	// per-instruction timing rings (absolute cycle numbers)
	fetchT    [ringSize]int64
	issueT    [ringSize]int64
	execT     [ringSize]int64
	completeT [ringSize]int64
	commitT   [ringSize]int64
	opRing    [ringSize]workload.OpClass

	// slot allocators (width-limited pipeline stages)
	fetchSlot  slotAlloc
	renameSlot slotAlloc
	issueSlot  slotAlloc
	commitSlot slotAlloc

	// functional units: next-free time per unit
	ialu, imult, fpalu, fpmult, memport []int64

	// bypass buffers: one entry per FU input; modelled as a small pool
	// whose slots are busy for the stall duration.
	bypass []int64

	// store-to-load forwarding: word address -> instruction index
	storeIdx map[uint64]int

	fetchNotBefore int64
	lastFetchBlock uint64

	res Result
}

// slotAlloc hands out cycle slots for a width-limited stage.
type slotAlloc struct {
	cycle int64
	used  int
	width int
}

// next returns the earliest slot cycle >= t and consumes it.
func (s *slotAlloc) next(t int64) int64 {
	if t > s.cycle {
		s.cycle = t
		s.used = 0
	}
	if s.used >= s.width {
		s.cycle++
		s.used = 0
		if s.cycle < t {
			s.cycle = t
		}
	}
	s.used++
	return s.cycle
}

func newMachine(cfg Config) *machine {
	m := &machine{
		cfg: cfg,
		hier: NewHierarchy(
			NewCache(cfg.L1I), NewCache(cfg.L1D), NewCache(cfg.L2),
			cfg.MemCycles, cfg.MSHRs),
		fetchSlot:      slotAlloc{width: cfg.FetchWidth},
		renameSlot:     slotAlloc{width: cfg.FetchWidth},
		issueSlot:      slotAlloc{width: cfg.IssueWidth},
		commitSlot:     slotAlloc{width: cfg.CommitWidth},
		ialu:           make([]int64, cfg.IALUs),
		imult:          make([]int64, cfg.IMults),
		fpalu:          make([]int64, cfg.FPALUs),
		fpmult:         make([]int64, cfg.FPMults),
		memport:        make([]int64, cfg.MemPorts),
		storeIdx:       make(map[uint64]int),
		lastFetchBlock: ^uint64(0),
	}
	// One bypass entry per FU input pair, as in Figure 7: each
	// functional unit carries BypassEntries slots per source operand.
	units := cfg.IALUs + cfg.IMults + cfg.FPALUs + cfg.FPMults + cfg.MemPorts
	n := units * 2 * cfg.BypassEntries
	if n < 1 {
		n = 1
	}
	m.bypass = make([]int64, n)
	m.hier.NextLinePrefetch = cfg.NextLinePrefetch
	return m
}

func (m *machine) units(op workload.OpClass) []int64 {
	switch op {
	case workload.IMul, workload.IDiv:
		return m.imult
	case workload.FAdd:
		return m.fpalu
	case workload.FMul, workload.FDiv:
		return m.fpmult
	case workload.Load, workload.Store:
		return m.memport
	default:
		return m.ialu
	}
}

// acquireUnit books the earliest-available unit at or after t and
// returns the actual start time.
func acquireUnit(units []int64, t int64, busy int64) int64 {
	best := 0
	for i, f := range units {
		if f < units[best] {
			best = i
		}
	}
	start := t
	if units[best] > t {
		start = units[best]
	}
	units[best] = start + busy
	return start
}

// producer returns the ring index of the instruction dist back from i,
// or -1 when it is beyond the tracked window (long retired: its value is
// available from the register file with no stall).
func producer(i, dist int) int {
	if dist <= 0 || dist > lookback {
		return -1
	}
	j := i - dist
	if j < 0 {
		return -1
	}
	return j % ringSize
}

// Run simulates n instructions from the generator on the configured
// machine and returns the aggregate result.
func Run(gen *workload.Generator, n int, cfg Config) Result {
	m := newMachine(cfg)
	S := int64(cfg.SchedToExec)
	P := int64(cfg.PredictedLoadCycles)

	for i := 0; i < n; i++ {
		in := gen.Next()
		r := i % ringSize
		m.opRing[r] = in.Op

		// ---- Fetch ----
		block := in.PC &^ uint64(cfg.L1I.BlockBytes-1)
		t := m.fetchSlot.next(m.fetchNotBefore)
		if block != m.lastFetchBlock {
			m.lastFetchBlock = block
			lat, hit, _ := m.hier.L1I.Access(in.PC, false)
			_ = lat
			if !hit {
				m.res.L1IMisses++
				extra := m.hier.missPath(in.PC, false, t)
				m.fetchNotBefore = t + extra
				t = m.fetchSlot.next(m.fetchNotBefore)
			}
		}
		m.fetchT[r] = t

		// ---- Rename/dispatch: width-limited, gated by ROB and IQ space ----
		ren := t + int64(cfg.FrontStages)
		if i >= cfg.ROB {
			if prev := m.commitT[(i-cfg.ROB)%ringSize] + 1; prev > ren {
				ren = prev
			}
		}
		if i >= cfg.IQ {
			if prev := m.issueT[(i-cfg.IQ)%ringSize] + 1; prev > ren {
				ren = prev
			}
		}
		ren = m.renameSlot.next(ren)

		// ---- Schedule (issue) ----
		// Wakeup constraints from producers; loads wake dependents with
		// the predicted latency, everything else exactly.
		issue := ren + 1
		var slowLoads [2]int // ring indices of slower-than-predicted load producers
		nSlow := 0
		for _, dist := range [2]int{in.Src1Dist, in.Src2Dist} {
			j := producer(i, dist)
			if j < 0 {
				continue
			}
			var c int64
			if m.opRing[j] == workload.Load {
				pred := m.execT[j] + P
				if m.completeT[j] > pred {
					if nSlow < 2 {
						slowLoads[nSlow] = j
						nSlow++
					}
					c = pred // speculative wakeup
				} else {
					c = m.completeT[j]
				}
			} else {
				c = m.completeT[j]
			}
			if w := c - S; w > issue {
				issue = w
			}
		}
		// If by its tentative issue time the scheduler has already seen a
		// producer's miss (tag check at predicted-complete time), it holds
		// the dependent in the IQ instead of issuing it speculatively.
		for k := 0; k < nSlow; k++ {
			j := slowLoads[k]
			missDetect := m.execT[j] + P
			if issue >= missDetect {
				if w := m.completeT[j] - S; w > issue {
					issue = w
				}
				slowLoads[k] = -1
			}
		}
		issue = m.issueSlot.next(issue)
		m.issueT[r] = issue

		// ---- Execute ----
		exec := issue + S
		// Actual operand availability: a dependent that reaches the FU
		// before its data stalls in the load-bypass buffer (one extra
		// cycle per entry); if the producer load actually missed, the
		// dependent is flushed and replayed (Section 4.3).
		actual := exec
		for _, dist := range [2]int{in.Src1Dist, in.Src2Dist} {
			j := producer(i, dist)
			if j >= 0 && m.completeT[j] > actual {
				actual = m.completeT[j]
			}
		}
		if actual > exec {
			delay := actual - exec
			if delay <= int64(cfg.BypassEntries) {
				m.res.BypassStalls++
				// Occupy a bypass slot; conflicts push the start out.
				slot := acquireUnit(m.bypass, exec, delay)
				if slot > exec {
					m.res.BufferConflict++
				}
				exec = slot + delay
			} else {
				m.res.Replays++
				exec = actual + int64(cfg.ReplayCycles)
			}
		}

		lat := int64(opLatency(in.Op))
		busy := int64(1)
		if !pipelined(in.Op) {
			busy = lat
		}
		exec = acquireUnit(m.units(in.Op), exec, busy)
		m.execT[r] = exec

		// ---- Complete ----
		var complete int64
		switch in.Op {
		case workload.Load:
			word := in.Addr &^ 7
			if si, ok := m.storeIdx[word]; ok && i-si <= cfg.StoreForwardWindow {
				m.res.Forwards++
				complete = exec + int64(cfg.PredictedLoadCycles)
			} else {
				m.res.L1DAccesses++
				miss0 := m.hier.L1D.Misses
				complete = m.hier.DataAccess(in.Addr, false, exec)
				if m.hier.L1D.Misses > miss0 {
					m.res.L1DMisses++
				}
			}
		case workload.Store:
			m.storeIdx[in.Addr&^7] = i
			m.res.L1DAccesses++
			miss0 := m.hier.L1D.Misses
			m.hier.DataAccess(in.Addr, true, exec)
			if m.hier.L1D.Misses > miss0 {
				m.res.L1DMisses++
			}
			complete = exec + lat
		default:
			complete = exec + lat
		}
		m.completeT[r] = complete

		// ---- Branch redirect ----
		if in.Op == workload.Branch && in.Mispredicted {
			m.res.Mispredicts++
			if complete+1 > m.fetchNotBefore {
				m.fetchNotBefore = complete + 1
			}
			m.lastFetchBlock = ^uint64(0)
		}

		// ---- Commit ----
		com := complete + 1
		if i > 0 {
			if prev := m.commitT[(i-1)%ringSize]; prev > com {
				com = prev
			}
		}
		com = m.commitSlot.next(com)
		m.commitT[r] = com
	}

	last := m.commitT[(n-1)%ringSize]
	m.res.Instructions = uint64(n)
	m.res.Cycles = uint64(last)
	if n > 0 {
		m.res.CPI = float64(last) / float64(n)
	}
	m.res.L1DSlowHits = m.hier.L1D.SlowHits
	m.res.L2Misses = m.hier.L2Misses
	m.res.MemAccesses = m.hier.MemAccesses
	recordRunMetrics(&m.res)
	return m.res
}

// recordRunMetrics surfaces one run's instruction and L1D-miss counts
// on the metrics registry (cpusim prints the full Result tally).
// Aggregated once per run, not per instruction, so the simulator's
// inner loop is untouched; disabled instrumentation costs nil checks.
func recordRunMetrics(r *Result) {
	obs.C("cpu_instructions_total").Add(int64(r.Instructions))
	obs.C("cpu_l1d_misses_total").Add(int64(r.L1DMisses))
}
