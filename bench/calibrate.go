package main

import (
	"math"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// calRef is the reference speed: the CPU time one calibration unit
// takes on a CPU running at it. "Norm" metrics read as if the run had
// had that speed (see normMeter).
const calRef = 12 * time.Millisecond

// calRows is the table the calibration formats: latency and leakage
// pairs, as a study's scatter carries them.
var calRows = func() [][2]float64 {
	rows := make([][2]float64, 2000)
	for i := range rows {
		rows[i] = [2]float64{900 + float64(i)*0.123456789, 1 / float64(i+1)}
	}
	return rows
}()

// calBufSize holds one formatted table.
const calBufSize = 256 << 10

// calSink keeps the calibration's results live.
var calSink float64

// calibrationUnit is a fixed CPU workload built from the standard
// library alone, so that no commit of the program changes it: Gaussian
// draws through math.Log, Sqrt, Cos and Exp over a splitmix64 stream,
// as the Monte Carlo engine makes, and the shortest decimal formatting
// of a 2000-row table of floats, as the server's JSON encoder does. It
// formats into buf and allocates nothing, so it never does work for the
// garbage collector.
func calibrationUnit(buf []byte) float64 {
	s := uint64(12345)
	acc := 0.0
	for i := 0; i < 200000; i++ {
		s += 0x9e3779b97f4a7c15
		z := (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		u1 := (float64(z>>11) + 0.5) / (1 << 53)
		u2 := float64(z&0xffff) / 65536
		x := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		acc += math.Exp(-x*x*0.3) * math.Sqrt(1+x*x) / (1 + math.Abs(x))
	}
	for i := 0; i < 4; i++ {
		buf = buf[:0]
		for _, r := range calRows {
			buf = append(buf, "    {\n      \"latency_ps\": "...)
			buf = strconv.AppendFloat(buf, r[0], 'g', -1, 64)
			buf = append(buf, ",\n      \"normalized_leakage\": "...)
			buf = strconv.AppendFloat(buf, r[1], 'g', -1, 64)
			buf = append(buf, "\n    },\n"...)
		}
		acc += float64(len(buf))
	}
	return acc
}

// calibrate runs one calibration unit on every CPU at once and returns
// the CPU time a unit took, in milliseconds. Each unit runs locked to
// its own thread and is timed by that thread's CPU time, so that the
// garbage collector's work on the program's heap stays out of the
// reading. Nothing else may be timed meanwhile.
func calibrate() float64 {
	procs := runtime.GOMAXPROCS(0)
	accs := make([]float64, procs)
	took := make([]time.Duration, procs)
	c0 := cpuTime()
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, calBufSize)
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPUTime()
			accs[p] = calibrationUnit(buf)
			took[p] = threadCPUTime() - t0
		}()
	}
	wg.Wait()
	var sum time.Duration
	for p := range accs {
		calSink += accs[p]
		sum += took[p]
	}
	if sum <= 0 { // no per-thread clock: time the whole process instead
		sum = cpuTime() - c0
	}
	return float64(sum) / 1e6 / float64(procs)
}

// threadCPUTime is the calling thread's CPU time, user plus system, or
// 0 where the system has no per-thread clock.
func threadCPUTime() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD, which the syscall package defines only on some systems
	if runtime.GOOS != "linux" {
		return 0
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
