package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// normMeter turns the window's measurements into "norm" metrics: what
// the run would have measured on CPUs that nobody else used and that ran
// at the reference speed. The benchmark's host is a virtual machine on
// a shared machine, and two effects stretch its timings:
//
//   - steal: the hypervisor takes the virtual CPUs away, up to 65% of
//     their busy time in a busy hour. /proc/stat counts it, and the
//     kernel does not charge it to any process's CPU time.
//   - speed: the physical cores run up to 1.8x slower when the
//     neighbours are busy (shared clocks and hyper-thread siblings).
//     That stretches CPU time too, and nothing counts it.
//
// The meter splits the window into sub-windows of a quarter second of
// active time. For each it reads the stolen share s of the busy CPU
// ticks, and times one calibration unit on every CPU (calibrate.go),
// giving the speed factor k = calRef / unit time. It scales the
// sub-window's wall time and latencies by (1 − s)·k and its CPU time by
// k. On an unshared machine at the reference speed it changes nothing.
//
// One unit's time jitters by about 13% from one sub-window to the next,
// so what sets a run's spread is how many units it averages: a quarter
// second gives about 80 in a 20-second window, where a second gave 20.
type normMeter struct {
	open        time.Duration // active time of the open sub-window
	cpu         time.Duration // process CPU time of the open sub-window
	busy, steal int64         // CPU ticks of the open sub-window
	first       int           // index of the open sub-window's first latency

	latencies   []float64     // ms, each scaled by its sub-window's factor
	refTime     time.Duration // active time, scaled the same way
	refCPU      time.Duration // CPU time, scaled by the speed factor
	windows     []subWindowRecord
	totalBusy   int64
	totalStolen int64
}

// subWindowRecord is one closed sub-window, as measured; run files keep
// them so that a spread between runs can be traced to its sub-windows.
type subWindowRecord struct {
	ActiveMS float64 `json:"active_ms"`
	CPUMS    float64 `json:"cpu_ms"`
	Requests int     `json:"requests"`
	CalMS    float64 `json:"cal_ms"`
	Steal    float64 `json:"steal"`
}

// subWindow is the length of active time one steal share and one
// calibration cover.
const subWindow = 250 * time.Millisecond

// add accounts one active segment of the window.
func (m *normMeter) add(d, cpu time.Duration, busy, steal int64) {
	m.open += d
	m.cpu += cpu
	m.busy += busy
	m.steal += steal
}

// closeIfDue ends the open sub-window once it covers subWindow of
// active time; latencies holds every latency recorded so far.
func (m *normMeter) closeIfDue(latencies []float64) {
	if m.open >= subWindow {
		m.close(latencies)
	}
}

// close ends the open sub-window. It runs the calibration, so nothing
// else may run meanwhile.
func (m *normMeter) close(latencies []float64) {
	keep := 1.0
	if t := m.busy + m.steal; t > 0 {
		keep = float64(m.busy) / float64(t)
	}
	cal := calibrate()
	speed := float64(calRef) / 1e6 / cal
	for _, l := range latencies[m.first:] {
		m.latencies = append(m.latencies, l*keep*speed)
	}
	m.refTime += time.Duration(float64(m.open) * keep * speed)
	m.refCPU += time.Duration(float64(m.cpu) * speed)
	m.windows = append(m.windows, subWindowRecord{ActiveMS: float64(m.open) / 1e6, CPUMS: float64(m.cpu) / 1e6,
		Requests: len(latencies) - m.first, CalMS: cal, Steal: 1 - keep})
	m.totalBusy += m.busy
	m.totalStolen += m.steal
	m.open, m.cpu, m.busy, m.steal, m.first = 0, 0, 0, 0, len(latencies)
}

// stealShare is the stolen share of the window's busy CPU time.
func (m *normMeter) stealShare() float64 {
	t := m.totalBusy + m.totalStolen
	if t == 0 {
		return 0
	}
	return float64(m.totalStolen) / float64(t)
}

// cpuTicks reads the machine-wide busy and stolen CPU ticks from
// /proc/stat; both are zero where it is unavailable, which leaves the
// steal share at 0.
func cpuTicks() (busy, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseInt(f, 10, 64)
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			steal = v
		default:
			busy += v
		}
	}
	return busy, steal
}
