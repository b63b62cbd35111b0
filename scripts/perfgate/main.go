// Command perfgate compares paired `go test -bench` runs of a parent and
// a change (scripts/perf_gate.sh runs it). It prints each benchmark's
// median and quartiles of throughput on both sides, and exits 1 when a
// benchmark the parent ran is missing from the change or its change
// median throughput is more than maxDrop below the parent's. A benchmark
// only the change ran is reported but not gated.
//
// Usage: go run ./scripts/perfgate parent.txt change.txt
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"yieldcache/bench/stat"
)

// maxDrop is how far below the parent's a change median throughput may
// fall. Pairings of identical code on a shared 2-vCPU host read medians
// up to 6% apart.
const maxDrop = 0.10

// runs holds each benchmark's throughputs: the parent's, then the
// change's.
type runs map[string]*[2][]float64

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: perfgate parent.txt change.txt")
		os.Exit(2)
	}
	rs := runs{}
	for side, path := range os.Args[1:] {
		f, err := os.Open(path)
		if err == nil {
			err = rs.parse(side, f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfgate:", err)
			os.Exit(2)
		}
	}
	if failed := rs.gate(os.Stdout); len(failed) > 0 {
		fmt.Println("perfgate: FAIL", strings.Join(failed, ", "))
		os.Exit(1)
	}
	fmt.Println("perfgate: OK")
}

var procsSuffix = regexp.MustCompile(`-\d+$`)

// parse adds one side's throughputs from `go test -bench` output, one
// per result line, under the benchmark's name without its -GOMAXPROCS
// suffix. Lines that are not results are skipped.
func (rs runs) parse(side int, r io.Reader) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		// BenchmarkName-N  iterations  value unit  value unit ...
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		for i := 3; i < len(f); i += 2 {
			if f[i] != "ns/op" {
				continue
			}
			ns, err := strconv.ParseFloat(f[i-1], 64)
			if err != nil || ns <= 0 {
				return fmt.Errorf("bad ns/op in %q", sc.Text())
			}
			name := procsSuffix.ReplaceAllString(f[0], "")
			if rs[name] == nil {
				rs[name] = new([2][]float64)
			}
			rs[name][side] = append(rs[name][side], 1e9/ns)
		}
	}
	return sc.Err()
}

// gate prints one row per benchmark and returns the names that fail,
// or a reason when the parent ran no benchmark at all.
func (rs runs) gate(w io.Writer) (failed []string) {
	names := make([]string, 0, len(rs))
	for name := range rs {
		names = append(names, name)
	}
	sort.Strings(names)
	row := "%-30s %-30s %-30s %s\n"
	fmt.Fprintf(w, row, "ops/s: median [q1, q3] (runs)", "parent", "change", "change/parent")
	gated := 0
	for _, name := range names {
		p, c := rs[name][0], rs[name][1]
		if len(p) > 0 {
			gated++
		}
		verdict := "new, not gated"
		switch {
		case len(p) == 0:
		case len(c) == 0:
			verdict = "FAIL: missing on the change side"
			failed = append(failed, name)
		default:
			ratio := stat.Median(c) / stat.Median(p)
			verdict = fmt.Sprintf("%+.1f%%", (ratio-1)*100)
			if ratio < 1-maxDrop {
				verdict += fmt.Sprintf(" FAIL: more than %.0f%% slower", maxDrop*100)
				failed = append(failed, name)
			}
		}
		fmt.Fprintf(w, row, name, summary(p), summary(c), verdict)
	}
	if gated == 0 {
		failed = append(failed, "no benchmark ran on the parent side")
	}
	return failed
}

// summary renders one side's median, quartiles and run count.
func summary(vs []float64) string {
	if len(vs) == 0 {
		return "-"
	}
	q1, q3 := stat.Quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", stat.Median(vs), q1, q3, len(vs))
}
