package main

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// benchOut is `go test -bench` output of the three gated benchmarks,
// with one result line per run and the tool's header and footer lines.
func benchOut(buildNS, sampleNS, kernelNS float64, runs int) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: yieldcache\n")
	for i := 0; i < runs; i++ {
		// Vary each run a little so medians and quartiles differ.
		d := float64(i%3) * 0.01
		writeLine(&b, "BenchmarkPopulationBuildPair-2", 250, buildNS*(1+d), "90000 chips/s")
		writeLine(&b, "BenchmarkSample-2", 900000, sampleNS*(1+d), "0.15 us/chip\t0 B/op\t0 allocs/op")
		writeLine(&b, "BenchmarkKernelPair-2", 200000, kernelNS*(1+d), "0.62 us/chip\t0 B/op\t0 allocs/op")
	}
	b.WriteString("PASS\n")
	return b.String()
}

func writeLine(b *strings.Builder, name string, iters int, ns float64, extra string) {
	fmt.Fprintf(b, "%s\t%d\t%g ns/op\t%s\n", name, iters, ns, extra)
}

// mustParse parses a parent and a change output.
func mustParse(t *testing.T, parent, change string) runs {
	t.Helper()
	rs := runs{}
	for side, out := range []string{parent, change} {
		if err := rs.parse(side, strings.NewReader(out)); err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

func TestParse(t *testing.T) {
	rs := mustParse(t, benchOut(4e6, 1200, 5000, 3)+
		"BenchmarkTable6/rows-8\t3\t2000 ns/op\n"+
		"BenchmarkNoTime-2\t10\t5 chips/s\n"+
		"--- FAIL: BenchmarkBroken-2\n", "")
	want := map[string][]float64{
		// The -N suffix is stripped; ns/op is found among several
		// metrics on one line, and becomes operations per second.
		"BenchmarkPopulationBuildPair": {1e9 / 4e6, 1e9 / 4.04e6, 1e9 / 4.08e6},
		"BenchmarkSample":              {1e9 / 1200, 1e9 / 1212, 1e9 / 1224},
		"BenchmarkKernelPair":          {1e9 / 5000, 1e9 / 5050, 1e9 / 5100},
		"BenchmarkTable6/rows":         {1e9 / 2000},
	}
	if len(rs) != len(want) {
		t.Fatalf("parsed %d benchmarks, want the %d of %v", len(rs), len(want), want)
	}
	for name, vs := range want {
		if rs[name] == nil || len(rs[name][0]) != len(vs) || len(rs[name][1]) != 0 {
			t.Fatalf("%s: %v, want parent runs %v", name, rs[name], vs)
		}
		for i, got := range rs[name][0] {
			if d := got/vs[i] - 1; d > 1e-9 || d < -1e-9 {
				t.Errorf("%s run %d: %v ops/s, want %v", name, i, got, vs[i])
			}
		}
	}
	if err := (runs{}).parse(0, strings.NewReader("BenchmarkX-2\t1\tfast ns/op\n")); err == nil {
		t.Error("a non-numeric ns/op parsed")
	}
}

func TestGate(t *testing.T) {
	parent := benchOut(4e6, 1200, 5000, 10)
	for _, c := range []struct {
		name, parent, change string
		failed               []string
		report               []string // substrings the report must contain
	}{
		{name: "identical sides pass", parent: parent, change: parent},
		{
			name:   "a 2x slower change fails and names the benchmark",
			parent: parent, change: benchOut(8e6, 1200, 10000, 10),
			failed: []string{"BenchmarkKernelPair", "BenchmarkPopulationBuildPair"},
			report: []string{"-50.0% FAIL"},
		},
		{
			name:   "within the bound passes",
			parent: parent, change: benchOut(4.3e6, 1250, 5200, 10),
		},
		{
			name:   "a gated benchmark missing on the change side fails",
			parent: parent, change: strings.ReplaceAll(parent, "BenchmarkSample", "XBenchmarkSample"),
			failed: []string{"BenchmarkSample"},
			report: []string{"missing on the change side"},
		},
		{
			name:   "a change-only benchmark is reported, not gated",
			parent: parent, change: parent + "BenchmarkNew-2\t10\t1e9 ns/op\n",
			report: []string{"BenchmarkNew", "new, not gated"},
		},
		{
			name:   "no parent results fail",
			parent: "PASS\n", change: parent,
			failed: []string{"no benchmark ran on the parent side"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			failed := mustParse(t, c.parent, c.change).gate(&out)
			if !reflect.DeepEqual(failed, c.failed) {
				t.Errorf("failed = %v, want %v\n%s", failed, c.failed, out.String())
			}
			for _, s := range append(c.report, "BenchmarkPopulationBuildPair", "BenchmarkKernelPair") {
				if !strings.Contains(out.String(), s) {
					t.Errorf("report lacks %q:\n%s", s, out.String())
				}
			}
		})
	}
}
