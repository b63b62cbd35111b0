// Command bench is the end-to-end benchmark of yieldd. It serves
// internal/server in process behind an httptest listener with yieldd's
// default configuration, drives it with closed-loop clients from this
// one process, checks every response, and prints each end-to-end metric
// with its unit and sample count. A traced run (-trace) also replays
// the traced requests' inputs through each layer's public functions and
// prints per-layer metrics. README.md lists the workloads and metrics.
//
// Usage, from the root of the repository:
//
//	go run ./bench -seed 1 [-workload W] [-seconds 20] [-trace]
//
// Without -workload the command re-executes itself once per workload.
// The last line of standard output is a JSON summary of the run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"yieldcache/bench/stat"
	"yieldcache/internal/obs"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// specPath is the benchmark definition, at the root of the repository,
// where the command runs: it names the metrics a run's summary line
// carries, with their units.
const specPath = "BENCHMARK.json"

const (
	// setupRuns is how many times set-up is repeated; setup_s is the
	// median.
	setupRuns = 7
	// maxTracedSteps caps the traced prefix of a run, which is otherwise
	// the first fifth of the measurement window.
	maxTracedSteps = 40
)

func main() {
	var o options
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, each in its own process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measurement window in seconds")
	fs.BoolVar(&o.trace, "trace", false, "replay traced requests through each layer and report per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for run files and traces")
	fs.Parse(boolFlagValues(os.Args[1:], "trace"))
	if fs.NArg() > 0 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		os.Exit(2)
	}
	spec, err := loadSpec(specPath)
	if err == nil {
		err = os.MkdirAll(o.out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.workload == "" {
		os.Exit(runAll(o))
	}
	os.Exit(runOne(o, spec))
}

// boolFlagValues rewrites "-name 0" and "-name 1" as "-name=0" and
// "-name=1", so a boolean flag also takes a separate 0/1 argument.
func boolFlagValues(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition (run from the root of the repository): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &s, nil
}

// extraBounds are the regression bounds of the end-to-end metrics that
// BENCHMARK.json does not name: some workloads lack them, and the raw
// wall-clock and CPU times move on a shared virtual machine by more than
// the largest bound BENCHMARK.json allows (README.md). The run files
// carry them for the compare tool. failed_frac may not rise.
var extraBounds = map[string]float64{
	"latency_p50_ms":      0.25,
	"latency_p90_ms":      0.25,
	"latency_p99_ms":      0.25,
	"latency_p50_norm_ms": 0.25,
	"latency_p90_norm_ms": 0.25,
	"latency_p99_norm_ms": 0.25,
	"requests_per_s":      0.25,
	"cpu_ms_per_request":  0.25,
	"chips_per_s_norm":    0.25,
	"chips_to_target":     0.05,
	"recover_s":           0.25,
	"setup_wall_s":        0.25,
	"setup_cpu_s":         0.25,
	"rss_peak_mb":         0.25,
	"failed_frac":         0,
}

// higherBetter lists the metrics that improve upwards.
var higherBetter = map[string]bool{
	"requests_per_s": true, "requests_per_s_norm": true, "chips_per_s_norm": true,
	"build.parallel_eff": true, "server.coalesced_frac": true, "server.hit_frac": true,
}

// metricValue is one reported metric.
type metricValue struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	N      int      `json:"n"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// envStamp is what two sets of runs must share to be comparable.
type envStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
}

// runFile is the record of one run, written to <out>/<run>.json.
type runFile struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Started   time.Time              `json:"started"` // pairs runs in compare
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Env       envStamp               `json:"env"`
	Git       string                 `json:"git"`
	Steps     int                    `json:"steps"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Errors    []string               `json:"errors,omitempty"`
	Digest    string                 `json:"output_digest,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Windows   []subWindowRecord      `json:"windows,omitempty"`
}

// runner runs one workload in this process.
type runner struct {
	opts  options
	w     workload
	h     *harness
	timed *timedStore // durable traced runs only
	tr    *tracer     // traced runs only
	res   runFile

	steps     int
	active    time.Duration // measurement window, replays and checks excluded
	cpu       time.Duration // process CPU time within the window
	norm      normMeter
	chips     float64 // Monte Carlo chips the window's responses built
	first     []reply // step 0's replies, for the reference checks
	attempted int
	failed    int

	latency    []float64 // ms, every successful request
	traced     []float64 // ms, requests of traced steps
	untraced   []float64 // ms, the rest
	queueWaits []float64 // ms, from the job records of traced steps
	counters0  map[string]int64
}

func runOne(o options, spec *benchSpec) int {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	obs.Enable() // yieldd serves its metrics registry; so does the benchmark's server
	r := &runner{opts: o, w: w, res: runFile{
		Workload: o.workload, Seed: o.seed, Started: time.Now(), Seconds: o.seconds, Trace: o.trace,
		Env: envStamp{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH},
		Git:     gitRev(),
		Metrics: map[string]metricValue{},
	}}
	if o.trace {
		r.tr = newTracer()
	}
	if err := r.run(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	r.res.Steps, r.res.Attempted, r.res.Failed = r.steps, r.attempted, r.failed
	r.res.Correct = r.failed == 0
	r.applySpec(spec)

	base := fmt.Sprintf("%s-seed%d-%s-%d", o.workload, o.seed, map[bool]string{false: "e2e", true: "trace"}[o.trace], time.Now().UnixNano())
	if err := writeJSON(filepath.Join(o.out, base+".json"), r.res); err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing the run file:", err)
		return 1
	}
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(o.out, "trace-"+o.workload+".json")); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing the trace:", err)
			return 1
		}
	}

	printMetrics(os.Stdout, r.res)
	names := spec.EndToEnd
	if o.trace {
		names = spec.PerLayer
	}
	line, err := summaryLine(r.res, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(line)
	if !r.res.Correct {
		return 1
	}
	return 0
}

// run sets up, checks the golden study, measures the window and runs
// the closing checks.
func (r *runner) run(ctx context.Context) error {
	var setupWall, setupCPU, setupCal []float64
	for i := 0; i < setupRuns; i++ {
		if r.h != nil {
			if err := r.h.close(); err != nil {
				return fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
		}
		var timed *timedStore
		if r.tr != nil && r.w.durable() {
			timed = &timedStore{}
		}
		t0, c0 := time.Now(), cpuTime()
		h, err := newHarness(r.w.durable(), timed)
		if err != nil {
			return err
		}
		r.h, r.timed = h, timed
		if err := r.w.warm(h); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		setupCal = append(setupCal, calibrate())
	}
	// Set-up is timed in CPU seconds, at the reference speed: it is too
	// short for the steal share of its interval to be read reliably.
	r.metric("setup_s", stat.Median(setupCPU)*float64(calRef)/1e6/stat.Median(setupCal), "s", setupRuns)
	r.metric("setup_cpu_s", stat.Median(setupCPU), "s", setupRuns)
	r.metric("setup_wall_s", stat.Median(setupWall), "s", setupRuns)

	r.attempted++
	if err := checkGolden(r.h); err != nil {
		r.fail(err)
	}
	r.counters0 = map[string]int64{}
	for _, name := range countersRead {
		r.counters0[name] = obs.C(name).Value()
	}

	if err := r.loop(ctx); err != nil {
		return err
	}
	if err := r.w.finish(ctx, r); err != nil {
		r.fail(err)
	}
	r.endToEnd()
	if r.tr != nil {
		r.layerMetrics()
	}
	r.metric("rss_peak_mb", peakRSSMB(), "MB", 1)
	return r.h.close()
}

// minSteps keeps a run long enough for the output digest.
const minSteps = digestSteps

// loop is the measurement window: closed-loop steps until the window has
// passed and at least minSteps ran. Checks and trace replays run between
// steps with the window clock stopped.
func (r *runner) loop(ctx context.Context) error {
	window := time.Duration(r.opts.seconds) * time.Second
	for step := 0; ; step++ {
		start, cpu0 := time.Now(), cpuTime()
		busy0, steal0 := cpuTicks()
		rs := make([]reply, r.w.clients())
		var wg sync.WaitGroup
		for c := 1; c < len(rs); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rs[c] = r.w.send(r.h, step, c)
			}()
		}
		rs[0] = r.w.send(r.h, step, 0)
		wg.Wait()

		d, cpu := time.Since(start), cpuTime()-cpu0
		busy1, steal1 := cpuTicks()
		traced := r.tr != nil && step < maxTracedSteps && r.active < window/5
		r.active += d
		r.cpu += cpu
		r.norm.add(d, cpu, busy1-busy0, steal1-steal0)

		ok := r.record(step, rs, traced)
		r.norm.closeIfDue(r.latency)
		if traced && ok {
			if err := r.replay(ctx, step, rs); err != nil {
				return fmt.Errorf("replaying step %d: %w", step, err)
			}
		}
		r.steps = step + 1
		if r.active >= window && r.steps >= minSteps {
			r.norm.close(r.latency)
			return nil
		}
	}
}

// record counts one step's requests and checks their outputs. It
// reports whether every reply was ok and passed its checks; only such a
// step is replayed through the layers.
func (r *runner) record(step int, rs []reply, traced bool) bool {
	if step == 0 {
		r.first = rs
	}
	allOK := true
	for _, rp := range rs {
		r.attempted++
		if !rp.ok() {
			allOK = false
			r.fail(fmt.Errorf("step %d: %s", step, rp.failure()))
			continue
		}
		r.latency = append(r.latency, rp.ms())
		if traced {
			r.traced = append(r.traced, rp.ms())
		} else {
			r.untraced = append(r.untraced, rp.ms())
		}
	}
	if !allOK {
		return false
	}
	for _, err := range r.w.check(step, rs) {
		if err != nil {
			allOK = false
			r.fail(fmt.Errorf("step %d: %w", step, err))
		}
	}
	return allOK
}

// replay records the step's request spans and replays its inputs
// through the layers.
func (r *runner) replay(ctx context.Context, step int, rs []reply) error {
	reqSpan := 0
	for _, rp := range rs {
		id := r.tr.add(span{Request: step, Name: "request", Start: rp.start, End: rp.end})
		if reqSpan == 0 {
			reqSpan = id
		}
	}
	return r.w.replay(ctx, r, step, reqSpan, rs)
}

// queueWait records a traced request's queue wait from its job record.
func (r *runner) queueWait(rp reply) error {
	ms, err := r.h.queueWaitMS(rp.jobID)
	if err != nil {
		return err
	}
	r.queueWaits = append(r.queueWaits, ms)
	return nil
}

// maxErrors bounds the failure messages kept in a run file.
const maxErrors = 10

func (r *runner) fail(err error) {
	r.failed++
	if len(r.res.Errors) < maxErrors {
		r.res.Errors = append(r.res.Errors, err.Error())
	}
}

// metric records a metric with its sample count.
func (r *runner) metric(name string, v float64, unit string, n int) {
	m := metricValue{Value: v, Unit: unit, N: n, Better: "lower"}
	if higherBetter[name] {
		m.Better = "higher"
	}
	if b, ok := extraBounds[name]; ok {
		m.Bound = &b
	}
	r.res.Metrics[name] = m
}

// countersRead are the server counters the window is measured against.
var countersRead = []string{"server_study_coalesced_total", "server_study_cache_hits_total"}

// counterFrac records a server counter's increase over the window as a
// share of the requests sent.
func (r *runner) counterFrac(name, counterName string) {
	sent := r.steps * r.w.clients()
	r.metric(name, float64(obs.C(counterName).Value()-r.counters0[counterName])/float64(sent), "ratio", sent)
}

// endToEnd derives the latency, throughput, cost and failure metrics.
// Each timing comes twice: as measured, and as "norm", with steal and
// the CPUs' speed taken out (normMeter).
func (r *runner) endToEnd() {
	m := &r.norm
	r.res.Windows = m.windows
	cal := make([]float64, len(m.windows))
	for i, w := range m.windows {
		cal[i] = w.CalMS
	}
	r.metric("cal_ms", stat.Median(cal), "ms", len(cal))
	r.metric("steal_frac", m.stealShare(), "ratio", r.steps)
	n := len(r.latency)
	for _, p := range []struct {
		name string
		pm   int
	}{{"latency_p50", 500}, {"latency_p90", 900}, {"latency_p99", 990}} {
		if v, ok := stat.Percentile(r.latency, p.pm); ok {
			r.metric(p.name+"_ms", v, "ms", n)
		}
		if v, ok := stat.Percentile(m.latencies, p.pm); ok {
			r.metric(p.name+"_norm_ms", v, "ms", n)
		}
	}
	if n > 0 {
		r.metric("requests_per_s", float64(n)/r.active.Seconds(), "1/s", n)
		r.metric("requests_per_s_norm", float64(n)/m.refTime.Seconds(), "1/s", n)
		r.metric("cpu_ms_per_request", float64(r.cpu)/1e6/float64(n), "ms", n)
		r.metric("cpu_ms_per_request_norm", float64(m.refCPU)/1e6/float64(n), "ms", n)
	}
	if r.chips > 0 {
		r.metric("chips_per_s_norm", r.chips/m.refTime.Seconds(), "chips/s", r.steps)
	}
	r.metric("failed_frac", float64(r.failed)/float64(r.attempted), "ratio", r.attempted)
}

// layerMetrics derives the per-layer metrics from the trace: medians
// over the traced requests of each request's layer times.
func (r *runner) layerMetrics() {
	ls := r.tr.layers()
	med := func(name, unit string, f func(l layerTimes) (float64, bool)) {
		var vs []float64
		for _, l := range ls {
			if v, ok := f(l); ok {
				vs = append(vs, v)
			}
		}
		if len(vs) > 0 {
			r.metric(name, stat.Median(vs), unit, len(vs))
		}
	}
	perChip := func(layer string) func(l layerTimes) (float64, bool) {
		return func(l layerTimes) (float64, bool) {
			return l.ms[layer] * 1e3 / float64(l.size[layer]), l.size[layer] > 0
		}
	}
	total := func(scale float64, layers ...string) func(l layerTimes) (float64, bool) {
		return func(l layerTimes) (float64, bool) {
			for _, name := range layers {
				if _, ok := l.ms[name]; ok {
					return l.ms[name] * scale, true
				}
			}
			return 0, false
		}
	}
	med("sample.us_per_chip", "us", perChip("sample"))
	med("kernel.us_per_chip", "us", perChip("kernel"))
	med("build.ms", "ms", total(1, "build", "sweep.base_build"))
	med("build.parallel_eff", "ratio", func(l layerTimes) (float64, bool) {
		sk := l.ms["sample"]/float64(l.size["sample"]) + l.ms["kernel"]/float64(l.size["kernel"])
		ok := l.size["sample"] > 0 && l.size["build"] > 0
		return sk * float64(l.size["build"]) / (l.ms["build"] * float64(runtime.GOMAXPROCS(0))), ok
	})
	med("estimate.overhead_frac", "ratio", func(l layerTimes) (float64, bool) {
		return l.ms["build"]/l.ms["build.noest"] - 1, l.ms["build.noest"] > 0
	})
	med("classify.ms", "ms", total(1, "classify", "sweep.classify"))
	med("encode.ms", "ms", total(1, "encode"))
	med("encode.kb", "KB", func(l layerTimes) (float64, bool) { return float64(l.size["encode"]) / 1024, l.size["encode"] > 0 })
	med("server.self_ms", "ms", func(l layerTimes) (float64, bool) { return l.self, true })
	med("reconcile.unattributed_frac", "ratio", func(l layerTimes) (float64, bool) { return l.self / l.request, true })
	med("persist.ms_per_request", "ms", total(1, "persist"))
	med("persist.writes_per_request", "count", func(l layerTimes) (float64, bool) { return float64(l.count["persist"]), l.count["persist"] > 0 })
	med("persist.kb_per_request", "KB", func(l layerTimes) (float64, bool) { return float64(l.size["persist"]) / 1024, l.count["persist"] > 0 })
	med("sweep.plan_ms", "ms", total(1, "sweep.plan"))
	med("sweep.base_build_ms", "ms", total(1, "sweep.base_build"))
	med("sweep.delta_build_ms", "ms", total(1, "sweep.delta_build"))
	med("sweep.delta_builds", "count", func(l layerTimes) (float64, bool) {
		return float64(l.count["sweep.delta_build"]), l.count["sweep.delta_build"] > 0
	})
	med("sweep.classify_ms", "ms", total(1, "sweep.classify"))
	med("sweep.frontier_ms", "ms", total(1, "sweep.frontier"))
	med("econ.us", "us", total(1e3, "econ"))
	if len(r.queueWaits) > 0 {
		r.metric("server.queue_wait_ms", stat.Median(r.queueWaits), "ms", len(r.queueWaits))
	}
	if len(r.traced) > 0 && len(r.untraced) > 0 {
		r.metric("trace.overhead_frac", stat.Median(r.traced)/stat.Median(r.untraced)-1, "ratio", len(r.traced))
	}
}

// applySpec stamps the metrics BENCHMARK.json names with its units,
// directions and bounds.
func (r *runner) applySpec(spec *benchSpec) {
	for _, list := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
		for _, sm := range list {
			m, ok := r.res.Metrics[sm.Name]
			if !ok {
				continue
			}
			m.Better, m.Bound = sm.Better, sm.Bound
			r.res.Metrics[sm.Name] = m
		}
	}
}

// summary is the JSON line a run ends with: its outcome and the metrics
// BENCHMARK.json names.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the final JSON line: the outcome and the named metrics.
func summaryLine(res runFile, names []specMetric) (string, error) {
	out := summary{res.Correct, res.Attempted, res.Failed, map[string]summaryValue{}}
	for _, sm := range names {
		m, ok := res.Metrics[sm.Name]
		if !ok {
			return "", fmt.Errorf("%s reported no %s", res.Workload, sm.Name)
		}
		if m.Unit != sm.Unit {
			return "", fmt.Errorf("%s is in %s, the benchmark definition says %s", sm.Name, m.Unit, sm.Unit)
		}
		out.Metrics[sm.Name] = summaryValue{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func printMetrics(w io.Writer, res runFile) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s seed %d: %d steps, %d requests attempted, %d failed\n",
		res.Workload, res.Seed, res.Steps, res.Attempted, res.Failed)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	if res.Digest != "" {
		fmt.Fprintf(w, "  %-28s %s\n", "output_digest", res.Digest)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitRev is what `git rev-parse HEAD` prints for the repository the
// command runs in, read from its .git directory so that the benchmark
// reads nothing outside the checkout; "unknown" outside a git checkout.
func gitRev() string {
	const dir = ".git"
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref // detached HEAD
	}
	if rev, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, _ := os.ReadFile(filepath.Join(dir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

// runAll runs every workload in its own process, so memory peaks, GC
// state and failures stay separate, and ends with a combined summary.
func runAll(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	all := summary{Correct: true, Metrics: map[string]summaryValue{}}
	code := 0
	for _, name := range workloadNames {
		var buf bytes.Buffer
		cmd := exec.Command(exe, "-workload", name, fmt.Sprint("-seed=", o.seed), fmt.Sprint("-seconds=", o.seconds),
			fmt.Sprint("-trace=", o.trace), "-out", o.out)
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code, all.Correct = 1, false
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var one summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &one); err != nil {
			code, all.Correct = 1, false
			continue
		}
		all.Correct = all.Correct && one.Correct
		all.Attempted += one.Attempted
		all.Failed += one.Failed
		for k, v := range one.Metrics {
			all.Metrics[name+"."+k] = v
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !all.Correct && code == 0 {
		code = 1
	}
	return code
}
