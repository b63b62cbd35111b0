// Command yieldsim runs the Monte Carlo yield study on its own (no CPU
// simulation): it builds the chip population, derives the limits, prints
// the loss breakdowns for both cache organisations and the Figure 8
// scatter, and can emit the raw population as CSV for external tooling.
//
// Usage:
//
//	yieldsim [-chips N] [-seed S] [-constraints nominal|relaxed|strict] [-csv]
//	         [-target-ci W] [-confidence C]
//	         [-metrics-out m.json] [-trace-out t.json] [-manifest-out run.json] [-pprof addr]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"yieldcache"
	"yieldcache/internal/obs"
	"yieldcache/internal/report"
)

func main() {
	chips := flag.Int("chips", 2000, "Monte Carlo population size")
	seed := flag.Int64("seed", 2006, "master seed")
	consName := flag.String("constraints", "nominal", "yield constraints: nominal, relaxed or strict")
	csv := flag.Bool("csv", false, "emit the population (latency, leakage, classification) as CSV and exit")
	targetCI := flag.Float64("target-ci", 0,
		"stop sampling early once the base-yield interval half-width reaches this target (0 < W < 1; 0 builds the full population)")
	confidence := flag.Float64("confidence", 0.95,
		"confidence level of the yield intervals printed with every table and of -target-ci")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	if *targetCI < 0 || *targetCI >= 1 {
		slog.Error("-target-ci out of range", "target_ci", *targetCI, "want", "0 <= W < 1")
		os.Exit(2)
	}
	if *confidence <= 0 || *confidence >= 1 {
		slog.Error("-confidence out of range", "confidence", *confidence, "want", "0 < C < 1")
		os.Exit(2)
	}

	run := obsFlags.Activate("yieldsim")
	defer func() {
		if err := run.Close(); err != nil {
			slog.Error("writing observability outputs", "error", err)
		}
	}()

	cons, ok := yieldcache.NamedConstraints(*consName)
	if !ok {
		slog.Error("unknown constraint set", "constraints", *consName,
			"want", "nominal, relaxed or strict")
		os.Exit(2)
	}
	run.Manifest.Set("chips", *chips).Set("seed", *seed).Set("constraints", *consName)

	scfg := yieldcache.StudyConfig{Chips: *chips, Seed: *seed, Constraints: &cons}
	if *targetCI > 0 {
		scfg.Estimate = &yieldcache.EstimateConfig{
			TargetCIWidth: *targetCI,
			Confidence:    *confidence,
		}
		run.Manifest.Set("target_ci_width", *targetCI).Set("confidence", *confidence)
	}
	study, err := yieldcache.NewStudyCtx(context.Background(), scfg)
	if err != nil {
		slog.Error("building the study", "error", err)
		os.Exit(1)
	}
	run.Manifest.Set("limit_delay_ps", study.Limits.DelayPS).
		Set("limit_leakage_w", study.Limits.LeakageW)
	if est := study.Estimate; est != nil && est.EarlyStop {
		run.Manifest.Set("early_stop", true).Set("chips_measured", est.Chips)
	}

	if *csv {
		t := report.NewTable("", "chip", "latency_ps", "normalized_leakage", "classification")
		for i, p := range study.Figure8() {
			t.AddRow(i, fmt.Sprintf("%.2f", p.LatencyPS),
				fmt.Sprintf("%.4f", p.NormalizedLeakage), p.Reason.String())
		}
		fmt.Print(t.CSV())
		return
	}

	fmt.Printf("constraints: %s (delay mean+%.1f sigma, leakage %.0fx average)\n",
		cons.Name, cons.DelaySigmaK, cons.LeakageMult)
	fmt.Printf("limits: delay %.1f ps, leakage %.2f mW\n",
		study.Limits.DelayPS, study.Limits.LeakageW*1e3)
	if est := study.Estimate; est != nil && est.EarlyStop {
		fmt.Printf("precision: ±%.3f at %.0f%% confidence reached after %d of %d chips (early stop)\n",
			*targetCI, *confidence*100, est.Chips, *chips)
	}
	fmt.Println()

	printYields := func(bd yieldcache.LossBreakdown) {
		fmt.Printf("base yield %.1f%% ±%.1f%%", bd.Yield(-1)*100, bd.YieldCI(-1, *confidence).HalfWidth()*100)
		for i, s := range bd.Schemes {
			fmt.Printf("; %s %.1f%% ±%.1f%%", s.Scheme, bd.Yield(i)*100, bd.YieldCI(i, *confidence).HalfWidth()*100)
		}
		fmt.Print("\n\n")
	}

	bd := study.Table2()
	fmt.Println(yieldcache.RenderBreakdown("Loss breakdown, regular power-down", bd))
	printYields(bd)

	bd3 := study.Table3()
	fmt.Println(yieldcache.RenderBreakdown("Loss breakdown, horizontal power-down", bd3))
	printYields(bd3)

	fmt.Println(yieldcache.RenderFigure8(study.Figure8(), 72, 24))
}
