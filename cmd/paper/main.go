// Command paper regenerates every table and figure of the paper's
// evaluation section (Tables 2-6, Figures 8-10, the Section 4.5 naive
// binning numbers, and the Figure 1 background data) from the Monte
// Carlo populations and the CPU simulator.
//
// Usage:
//
//	paper [-chips N] [-seed S] [-instructions N] [-only table2,figure9,...]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"yieldcache"
	"yieldcache/internal/obs"
	"yieldcache/internal/report"
)

func main() {
	chips := flag.Int("chips", 2000, "Monte Carlo population size")
	seed := flag.Int64("seed", 2006, "master seed for process variation sampling")
	instr := flag.Int("instructions", 300_000, "instructions per benchmark run")
	only := flag.String("only", "", "comma-separated subset (table2..table6, figure1, figure8, figure9, figure10, naive, trend, economics, ssta)")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	run := obsFlags.Activate("paper")
	defer func() {
		if err := run.Close(); err != nil {
			slog.Error("writing observability outputs", "error", err)
		}
	}()
	run.Manifest.Set("chips", *chips).Set("seed", *seed).
		Set("instructions", *instr).Set("only", *only)

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(k))] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }
	section := func(k string, f func()) {
		if !sel(k) {
			return
		}
		sp := obs.StartSpan(k)
		f()
		sp.End()
	}

	study, err := yieldcache.NewStudyCtx(context.Background(), yieldcache.StudyConfig{Chips: *chips, Seed: *seed})
	if err != nil {
		slog.Error("building the study", "error", err)
		os.Exit(1)
	}
	perf := yieldcache.NewPerfEvaluator(yieldcache.PerfConfig{Instructions: *instr})

	fmt.Printf("Population: %d chips, seed %d; limits: delay %.1f ps (cycle %.1f ps), leakage %.2f mW\n\n",
		*chips, *seed, study.Limits.DelayPS, study.Limits.CycleTimePS(), study.Limits.LeakageW*1e3)

	section("figure1", func() {
		fmt.Println(figure1())
	})
	section("figure8", func() {
		fmt.Println(yieldcache.RenderFigure8(study.Figure8(), 72, 24))
	})
	section("table2", func() {
		bd := study.Table2()
		fmt.Println(yieldcache.RenderBreakdown("Table 2: sources of yield loss, regular power-down", bd))
		printYields(bd)
	})
	section("table3", func() {
		bd := study.Table3()
		fmt.Println(yieldcache.RenderBreakdown("Table 3: sources of yield loss, horizontal power-down", bd))
		printYields(bd)
	})
	section("table4", func() {
		fmt.Println(yieldcache.RenderTotals("Table 4: total losses, relaxed/strict, regular power-down", study.Table4()))
	})
	section("table5", func() {
		fmt.Println(yieldcache.RenderTotals("Table 5: total losses, relaxed/strict, horizontal power-down", study.Table5()))
	})
	section("table6", func() {
		fmt.Println(yieldcache.RenderTable6(study.Table6(perf)))
	})
	section("figure9", func() {
		fmt.Println(yieldcache.RenderFigure(perf.Figure9(), 50))
	})
	section("figure10", func() {
		fmt.Println(yieldcache.RenderFigure(perf.Figure10(), 50))
	})
	section("naive", func() {
		p1, p2 := perf.NaiveBinning()
		fmt.Printf("Naive binning (Section 4.5): +1 cycle %.2f%% (paper 6.42%%), +2 cycles %.2f%% (paper 12.62%%)\n\n",
			p1, p2)
	})
	section("trend", func() {
		rows, err := yieldcache.TechnologyTrend(*chips/2, *seed)
		if err != nil {
			slog.Error("technology trend", "error", err)
			os.Exit(1)
		}
		fmt.Println(yieldcache.RenderTrend(rows))
	})
	section("ssta", func() {
		fmt.Println(yieldcache.RenderSSTA(study.CompareSSTA()))
	})
	section("economics", func() {
		rows, err := study.Economics(perf, yieldcache.DefaultCostModel())
		if err != nil {
			slog.Error("economics", "error", err)
			os.Exit(1)
		}
		fmt.Println(yieldcache.RenderEconomics(rows))
	})
	if flag.NArg() > 0 {
		slog.Error("unexpected arguments", "args", flag.Args())
		os.Exit(2)
	}
}

func printYields(bd yieldcache.LossBreakdown) {
	fmt.Printf("base yield %.1f%%", bd.Yield(-1)*100)
	for i, s := range bd.Schemes {
		fmt.Printf("; %s yield %.1f%% (loss -%.1f%%)", s.Scheme, bd.Yield(i)*100, bd.LossReduction(i)*100)
	}
	fmt.Print("\n\n")
}

// figure1 prints the background yield-factor data of Figure 1
// (literature data from the paper's reference [18]; not a simulation
// output, included for completeness of the figure set).
func figure1() string {
	t := report.NewTable("Figure 1: yield factors by process technology (literature data [18])",
		"Node [um]", "Defect density [%]", "Lithography [%]", "Parametric [%]", "Yield [%]")
	rows := [][]interface{}{
		{"0.35", 3, 2, 1, 94},
		{"0.25", 4, 3, 3, 90},
		{"0.18", 5, 5, 8, 82},
		{"0.13", 6, 7, 17, 70},
		{"0.09", 7, 9, 32, 52},
	}
	for _, r := range rows {
		t.AddRow(r...)
	}
	return t.String()
}
