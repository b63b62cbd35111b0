// Command compare sets two groups of benchmark run files side by side:
// a parent commit's runs (A) and a change's runs (B).
//
// Usage, from the root of the repository:
//
//	go run ./bench/compare out-parent/*.json -- out-change/*.json
//
// It refuses to compare runs whose environment stamps differ. For each
// workload and metric it prints each side's median and quartiles and a
// verdict under the metric's bound:
//
//   - better: every B run reads better than every A run;
//   - unresolved: the run-to-run spread (quartile distance over the
//     median, on either side) is wider than the bound;
//   - worse: B's median is worse than A's by more than the bound;
//   - agree: otherwise.
//
// The claim column applies the rule for claiming a gain: at least ten
// pairs (A[i], B[i]) of runs that ran back to back, B winning at least
// nine tenths of them, ties counting for neither, and medians that
// differ by more than A's quartile distance. Each side is put in the
// order its runs started, and the i-th runs pair up; when the two sides
// have different counts, or pair i does not start after pair i−1, the
// runs did not alternate and the column reads "unpaired". The exit
// status is 1 when any verdict is worse.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"yieldcache/bench/stat"
)

// run is the part of a run file the comparison reads.
type run struct {
	Workload string            `json:"workload"`
	Started  time.Time         `json:"started"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Env      map[string]any    `json:"env"`
	Metrics  map[string]metric `json:"metrics"`
	file     string
}

type metric struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func main() {
	a, b, err := splitArgs(os.Args[1:])
	if err == nil {
		var runsA, runsB []run
		if runsA, err = load(a); err == nil {
			if runsB, err = load(b); err == nil {
				var worse bool
				worse, err = compare(os.Stdout, runsA, runsB)
				if err == nil && worse {
					os.Exit(1)
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
}

func splitArgs(args []string) (a, b []string, err error) {
	for i, s := range args {
		if s == "--" {
			a, b = args[:i], args[i+1:]
			if len(a) == 0 || len(b) == 0 {
				break
			}
			return a, b, nil
		}
	}
	return nil, nil, errors.New("usage: compare A.json... -- B.json...")
}

func load(files []string) ([]run, error) {
	runs := make([]run, 0, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r run
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		r.file = f
		runs = append(runs, r)
	}
	return runs, nil
}

// stamp is what must match for two runs to be comparable: the machine,
// the toolchain, the run length and whether the run was traced. The
// commit and the seed are what a comparison varies.
func stamp(r run) string {
	keys := make([]string, 0, len(r.Env))
	for k := range r.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%v ", k, r.Env[k])
	}
	fmt.Fprintf(&sb, "seconds=%d trace=%v", r.Seconds, r.Trace)
	return sb.String()
}

// compare prints the table and reports whether any verdict is worse.
func compare(w io.Writer, a, b []run) (bool, error) {
	want := stamp(a[0])
	for _, r := range append(append([]run{}, a...), b...) {
		if s := stamp(r); s != want {
			return false, fmt.Errorf("environment stamps differ, refusing to compare:\n  %s: %s\n  %s: %s",
				a[0].file, want, r.file, s)
		}
	}
	byWorkload := func(runs []run) map[string][]run {
		m := map[string][]run{}
		for _, r := range runs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		for _, rs := range m {
			sort.SliceStable(rs, func(i, j int) bool { return rs[i].Started.Before(rs[j].Started) })
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var workloads []string
	for name := range wa {
		if _, ok := wb[name]; ok {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return false, errors.New("no workload has runs on both sides")
	}

	anyWorse := false
	for _, name := range workloads {
		paired := alternating(wa[name], wb[name])
		fmt.Fprintf(w, "%s: %d runs A, %d runs B\n", name, len(wa[name]), len(wb[name]))
		fmt.Fprintf(w, "  %-28s %-34s %-34s %-11s %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "verdict", "claim")
		for _, m := range metricNames(wa[name], wb[name]) {
			va, vb := values(wa[name], m), values(wb[name], m)
			ref := wa[name][0].Metrics[m]
			v := judge(va, vb, ref.Better == "higher", ref.Bound, paired)
			if v.verdict == "worse" {
				anyWorse = true
			}
			fmt.Fprintf(w, "  %-28s %-34s %-34s %-11s %s\n", m, summary(va), summary(vb), v.verdict, v.claim)
		}
	}
	return anyWorse, nil
}

// alternating reports whether a and b, each in start order, pair up as
// runs made back to back: the same count, every run stamped with its
// start, and both runs of pair i starting after both runs of pair i−1.
func alternating(a, b []run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Started.IsZero() || b[i].Started.IsZero() {
			return false
		}
		if i == 0 {
			continue
		}
		last := a[i-1].Started
		if b[i-1].Started.After(last) {
			last = b[i-1].Started
		}
		if !a[i].Started.After(last) || !b[i].Started.After(last) {
			return false
		}
	}
	return true
}

// metricNames lists the metrics every run on both sides reports.
func metricNames(a, b []run) []string {
	var names []string
	for m := range a[0].Metrics {
		all := true
		for _, r := range append(append([]run{}, a...), b...) {
			if _, ok := r.Metrics[m]; !ok {
				all = false
				break
			}
		}
		if all {
			names = append(names, m)
		}
	}
	sort.Strings(names)
	return names
}

func values(runs []run, name string) []float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = r.Metrics[name].Value
	}
	return vs
}

func summary(vs []float64) string {
	q1, q3 := stat.Quartiles(vs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", stat.Median(vs), q1, q3)
}

type judgement struct {
	verdict string
	claim   string
}

// judge applies the bound and the claim rule to one metric; a[i] and
// b[i] ran back to back when paired is set. A nil bound (a per-layer
// metric) gets no verdict.
func judge(a, b []float64, higher bool, bound *float64, paired bool) judgement {
	better := func(x, y float64) bool { // x better than y
		if higher {
			return x > y
		}
		return x < y
	}
	ma, mb := stat.Median(a), stat.Median(b)

	claim := "unpaired"
	if paired {
		wins := 0
		for i := range a {
			if better(b[i], a[i]) {
				wins++
			}
		}
		q1, q3 := stat.Quartiles(a)
		claim = fmt.Sprintf("no (%d/%d)", wins, len(a))
		if len(a) >= 10 && wins*10 >= 9*len(a) && better(mb, ma) && math.Abs(mb-ma) > q3-q1 {
			claim = fmt.Sprintf("yes (%d/%d)", wins, len(a))
		}
	}

	if bound == nil {
		return judgement{"-", claim}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	// worsening is the relative change of the median in the bad direction.
	worsening := (mb - ma) / math.Abs(ma)
	if higher {
		worsening = -worsening
	}
	if ma == 0 {
		worsening = 0
		if better(ma, mb) {
			worsening = math.Inf(1)
		}
	}
	switch {
	case allBetter:
		return judgement{"better", claim}
	case spread(a) > *bound || spread(b) > *bound:
		return judgement{"unresolved", claim}
	case worsening > *bound:
		return judgement{"worse", claim}
	}
	return judgement{"agree", claim}
}

// spread is the quartile distance as a share of the median; a single
// run has no measured spread.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return math.Inf(1)
	}
	q1, q3 := stat.Quartiles(vs)
	m := stat.Median(vs)
	if m == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}
