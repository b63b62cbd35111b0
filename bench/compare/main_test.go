package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func runs(workload string, values ...float64) []run {
	bound := 0.10
	out := make([]run, len(values))
	for i, v := range values {
		out[i] = run{
			Workload: workload, Seconds: 20,
			Env: map[string]any{"nproc": 2.0, "go": "go1.24.0"},
			Metrics: map[string]metric{
				"latency_p50_ms": {Value: v, Unit: "ms", Better: "lower", Bound: &bound},
				"build.ms":       {Value: v / 2, Unit: "ms", Better: "lower"},
			},
			file: workload,
		}
	}
	return out
}

func verdict(t *testing.T, a, b []float64) judgement {
	t.Helper()
	bound := 0.10
	return judge(a, b, false, &bound, true)
}

func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same distribution", []float64{100.3, 99.7, 101, 99, 100, 100.1, 99.9, 100.4, 99.6, 100}, "agree"},
		{"5% slower, inside the bound", []float64{105, 106, 104, 105.5, 104.5, 105, 106, 104, 105.2, 104.8}, "agree"},
		{"20% slower", []float64{120, 121, 119, 120.5, 119.5, 120, 121, 119, 120.2, 119.8}, "worse"},
		{"spread wider than the bound", []float64{70, 130, 80, 125, 75, 140, 90, 135, 60, 120}, "unresolved"},
		{"every run faster", []float64{80, 81, 79, 80.5, 79.5, 80, 81, 79, 80.2, 79.8}, "better"},
	} {
		if got := verdict(t, steady, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if got := judge(steady, steady, false, nil, true).verdict; got != "-" {
		t.Errorf("a metric without a bound got verdict %q", got)
	}
	// Throughput: lower is worse.
	bound := 0.10
	if got := judge([]float64{100, 101, 99}, []float64{80, 81, 79}, true, &bound, true).verdict; got != "worse" {
		t.Errorf("20%% less throughput: verdict %q, want worse", got)
	}
}

func TestClaimRule(t *testing.T) {
	a := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}
	nine := []float64{90, 91, 89, 90.5, 89.5, 90, 91, 89, 90.2, 110} // wins 9 of 10 pairs
	if got := verdict(t, a, nine).claim; !strings.HasPrefix(got, "yes (9/10)") {
		t.Errorf("9/10 wins with a gap beyond the parent's spread: claim %q", got)
	}
	eight := []float64{90, 91, 89, 90.5, 89.5, 90, 91, 89, 110, 110}
	if got := verdict(t, a, eight).claim; !strings.HasPrefix(got, "no (8/10)") {
		t.Errorf("8/10 wins: claim %q", got)
	}
	small := []float64{99.9, 100.9, 98.9, 100.4, 99.4, 99.9, 100.9, 98.9, 100.1, 99.7} // wins every pair by 0.1
	if got := verdict(t, a, small).claim; !strings.HasPrefix(got, "no (10/10)") {
		t.Errorf("a gap inside the parent's spread: claim %q", got)
	}
	if got := verdict(t, a[:9], nine[:9]).claim; !strings.HasPrefix(got, "no") {
		t.Errorf("fewer than ten pairs: claim %q", got)
	}
}

// started stamps run i of a set with the start time at minute
// offsets[i] past an origin.
func started(rs []run, offsets ...int) []run {
	origin := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range rs {
		rs[i].Started = origin.Add(time.Duration(offsets[i]) * time.Minute)
	}
	return rs
}

// TestClaimPairsRunsByStartTime: the claim pairs the runs that ran back
// to back, whatever order the files were given in, and refuses a claim
// when the two sides did not alternate.
func TestClaimPairsRunsByStartTime(t *testing.T) {
	a := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}
	b := []float64{90, 91, 89, 90.5, 89.5, 90, 91, 89, 90.2, 89.8}
	evens, odds := make([]int, 10), make([]int, 10)
	for i := range evens {
		evens[i], odds[i] = 2*i, 2*i+1
	}
	claims := func(ra, rb []run) string {
		t.Helper()
		var out bytes.Buffer
		if _, err := compare(&out, ra, rb); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	// The file order is reversed on one side, as a glob over seeds of
	// different digit widths can give; start times restore the pairs.
	ra, rb := started(runs("sweep-grid", a...), evens...), started(runs("sweep-grid", b...), odds...)
	for i, j := 0, len(rb)-1; i < j; i, j = i+1, j-1 {
		rb[i], rb[j] = rb[j], rb[i]
	}
	if out := claims(ra, rb); !strings.Contains(out, "yes (10/10)") {
		t.Errorf("alternating runs given out of order:\n%s", out)
	}

	// Every A run before every B run: no pairs ran back to back.
	late := make([]int, 10)
	for i := range late {
		late[i] = 100 + i
	}
	ra, rb = started(runs("sweep-grid", a...), evens...), started(runs("sweep-grid", b...), late...)
	if out := claims(ra, rb); !strings.Contains(out, "unpaired") || strings.Contains(out, "yes") {
		t.Errorf("runs that did not alternate:\n%s", out)
	}

	// Unequal counts, and runs without a start time.
	ra, rb = started(runs("sweep-grid", a...), evens...), started(runs("sweep-grid", b[:9]...), odds[:9]...)
	if out := claims(ra, rb); !strings.Contains(out, "unpaired") {
		t.Errorf("10 A runs against 9 B runs:\n%s", out)
	}
	if out := claims(runs("sweep-grid", a...), runs("sweep-grid", b...)); !strings.Contains(out, "unpaired") {
		t.Errorf("runs without start times:\n%s", out)
	}
}

func TestCompareRefusesDifferentEnvironments(t *testing.T) {
	a := runs("study-hot", 4, 4.1, 3.9)
	b := runs("study-hot", 4, 4.1, 3.9)
	b[1].Env = map[string]any{"nproc": 4.0, "go": "go1.24.0"}
	if _, err := compare(new(bytes.Buffer), a, b); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("compare across environments: err = %v", err)
	}
	b = runs("study-hot", 5, 5.1, 4.9)
	var out bytes.Buffer
	worse, err := compare(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 25%% slower change was not reported worse:\n%s", out.String())
	}
}
