// Command atmbench regenerates the paper's evaluation figures on the
// synthetic substrate and prints paper-vs-measured tables.
//
// Usage:
//
//	atmbench [-fig all|1,2,3,5,6,7,8,9,10,12,13,methods,stability,epsilon] [-boxes N] [-seed S] [-days D] [-svg DIR]
//	atmbench -robustbench FILE [-svg DIR]
//	atmbench -robustguard FILE
//	atmbench -obsbench FILE [-reps N]
//	atmbench -obsguard FILE [-reps N]
//
// With -svg, figures that have a graphical form (1, 3, 8, 9, 10, 12,
// 13) are additionally written as standalone SVG files into DIR.
// -cpuprofile wraps any mode in a runtime/pprof CPU profile.
//
// Besides the figures, atmbench keeps the two guards whose protection
// nothing else provides. -robustbench sweeps fixed and adaptive trust
// λ over the adversary families and records the frontier; -robustguard
// re-runs it and fails (exit 1) if λ=1 stops being bit-identical to the
// controller-free pipeline or adaptive trust regresses. -obsbench
// measures the observability plane's self-overhead: the streaming hot
// loop runs bare (nil tracer, nil event log) and fully instrumented
// (ingest spans adopted across the store, linked engine.step spans, a
// decision event per step), in interleaved pairs, and reports the
// median instrumented/bare ratio. -obsguard re-measures and fails
// (exit 1) if the overhead exceeds experiments.ObsOverheadBudget, if
// instrumentation changed any plan, or if the plane recorded nothing.
//
// Performance of the serving path — ingest throughput, reaction
// latency and the per-layer busy times of search, VIF, resize and the
// engine — is measured end to end by the benchmark command at the
// repository root (go run ./benchmark), not here.
//
// Figure 4 is the signature-search flow (implemented as
// spatial.Search) and Figure 11 is the testbed topology (implemented
// as testbed.DefaultTopology); neither has numbers to regenerate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"atm/internal/experiments"
)

// exitOn aborts on a figure error.
func exitOn(name string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "figure %s: %v\n", name, err)
		os.Exit(1)
	}
}

// printTable renders one figure's table to stdout.
func printTable(name string, t *experiments.Table) {
	if _, err := t.WriteTo(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "figure %s: render: %v\n", name, err)
		os.Exit(1)
	}
}

func main() {
	figs := flag.String("fig", "all", "comma-separated figure numbers, or 'all'")
	boxes := flag.Int("boxes", 200, "number of synthetic boxes (paper: 6000)")
	seed := flag.Int64("seed", 1, "trace generator seed")
	days := flag.Int("days", 7, "trace length in days")
	svgDir := flag.String("svg", "", "directory to write figure SVGs into (optional)")
	workers := flag.Int("workers", 0, "worker-pool size; <= 0 uses one worker per core")
	robustbench := flag.String("robustbench", "", "run the trust-controller robustness sweep and write its JSON record to this file (skips figures)")
	robustguard := flag.String("robustguard", "", "re-run the robustness sweep against the record in this file and fail if parity breaks or adaptive trust regresses (skips figures)")
	obsbench := flag.String("obsbench", "", "run the observability self-overhead benchmark and write its JSON record to this file (skips figures)")
	obsguard := flag.String("obsguard", "", "re-run the observability benchmark against the record in this file and fail if overhead exceeds the budget or fidelity breaks (skips figures)")
	reps := flag.Int("reps", 0, "interleaved bare/instrumented timing pairs for the observability benchmark (<= 0 selects 3)")
	cpuprofile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	writeSVG := func(name string, render func() (string, error)) {
		if *svgDir == "" {
			return
		}
		svg, err := render()
		if err != nil {
			fmt.Fprintf(os.Stderr, "svg %s: %v\n", name, err)
			os.Exit(1)
		}
		path := filepath.Join(*svgDir, name+".svg")
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "svg dir: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "svg %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("  [wrote %s]\n", path)
	}

	opts := experiments.Options{Boxes: *boxes, Seed: *seed, Days: *days, Workers: *workers, Reps: *reps}

	if *robustbench != "" {
		r, err := experiments.RobustBench(opts)
		exitOn("robustbench", err)
		printTable("robustbench", r.Render())
		data, err := json.MarshalIndent(r, "", "  ")
		exitOn("robustbench", err)
		if err := os.WriteFile(*robustbench, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "robustbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  [wrote %s]\n", *robustbench)
		writeSVG("fig_robust_frontier", r.RenderSVG)
		return
	}

	if *robustguard != "" {
		data, err := os.ReadFile(*robustguard)
		exitOn("robustguard", err)
		var floor experiments.RobustBenchResult
		exitOn("robustguard", json.Unmarshal(data, &floor))
		r, err := experiments.RobustBench(opts)
		exitOn("robustguard", err)
		printTable("robustguard", r.Render())
		var fails []string
		if !r.StationaryParity {
			fails = append(fails, "λ=1 no longer bit-identical to the controller-free pipeline on the stationary trace")
		}
		for _, fam := range r.Families {
			adaptive := fam.Cells[len(fam.Cells)-1]
			if !fam.AdaptiveOK {
				fails = append(fails, fmt.Sprintf("%s: adaptive tickets %d exceed best endpoint %d + tolerance %d",
					fam.Family, adaptive.TicketsAfter, fam.EndpointTickets, fam.Tolerance))
			}
			// Drift vs the recorded frontier: the workload is fully
			// deterministic, so adaptive results creeping past the
			// recorded count + tolerance mean the controller got worse.
			for _, rec := range floor.Families {
				if rec.Family != fam.Family || len(rec.Cells) == 0 {
					continue
				}
				recorded := rec.Cells[len(rec.Cells)-1]
				if adaptive.TicketsAfter > recorded.TicketsAfter+fam.Tolerance {
					fails = append(fails, fmt.Sprintf("%s: adaptive tickets %d regressed past recorded %d + tolerance %d",
						fam.Family, adaptive.TicketsAfter, recorded.TicketsAfter, fam.Tolerance))
				}
			}
		}
		if len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintf(os.Stderr, "robustguard: %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Printf("  [robustguard ok: parity %v, %d families within tolerance]\n",
			r.StationaryParity, len(r.Families))
		return
	}

	if *obsbench != "" {
		r, err := experiments.ObsBench(opts)
		exitOn("obsbench", err)
		printTable("obsbench", r.Render())
		data, err := json.MarshalIndent(r, "", "  ")
		exitOn("obsbench", err)
		if err := os.WriteFile(*obsbench, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "obsbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  [wrote %s]\n", *obsbench)
		return
	}

	if *obsguard != "" {
		// The recorded file documents the last accepted measurement; the
		// gate itself is absolute (ObsOverheadBudget), not relative to the
		// floor — observability overhead must never creep past the budget
		// regardless of what the record says.
		data, err := os.ReadFile(*obsguard)
		exitOn("obsguard", err)
		var floor experiments.ObsBenchResult
		exitOn("obsguard", json.Unmarshal(data, &floor))
		r, err := experiments.ObsBench(opts)
		exitOn("obsguard", err)
		printTable("obsguard", r.Render())
		var fails []string
		if r.OverheadFrac > experiments.ObsOverheadBudget {
			fails = append(fails, fmt.Sprintf("observability overhead %+.1f%% exceeds the %.0f%% budget (recorded %+.1f%%)",
				100*r.OverheadFrac, 100*experiments.ObsOverheadBudget, 100*floor.OverheadFrac))
		}
		if !r.PlansMatch {
			fails = append(fails, "instrumentation changed a published plan (fidelity broken)")
		}
		if r.SpansExported == 0 || r.EventsPublished == 0 {
			fails = append(fails, fmt.Sprintf("instrumented run recorded nothing (%d spans, %d events) — the plane is dead, not cheap",
				r.SpansExported, r.EventsPublished))
		}
		if len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintf(os.Stderr, "obsguard: %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Printf("  [obsguard ok: %+.1f%% overhead within %.0f%% budget, %d spans, %d events]\n",
			100*r.OverheadFrac, 100*experiments.ObsOverheadBudget, r.SpansExported, r.EventsPublished)
		return
	}

	want := map[string]bool{}
	if *figs == "all" {
		for _, f := range []string{"1", "2", "3", "5", "6", "7", "8", "9", "10", "12", "13", "methods", "stability", "epsilon"} {
			want[f] = true
		}
	} else {
		for _, f := range strings.Split(*figs, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}

	run := func(name string, f func() (interface{ Render() *experiments.Table }, error)) {
		if !want[name] {
			return
		}
		start := time.Now()
		r, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", name, err)
			os.Exit(1)
		}
		if _, err := r.Render().WriteTo(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: render: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("  [figure %s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if want["1"] {
		r, err := experiments.Fig1(opts)
		exitOn("1", err)
		printTable("1", r.Render())
		writeSVG("fig1", r.RenderSVG)
	}
	run("2", func() (interface{ Render() *experiments.Table }, error) { return experiments.Fig2(opts) })
	if want["3"] {
		r, err := experiments.Fig3(opts)
		exitOn("3", err)
		printTable("3", r.Render())
		writeSVG("fig3", r.RenderSVG)
	}
	run("5", func() (interface{ Render() *experiments.Table }, error) { return experiments.Fig5(opts) })
	run("6", func() (interface{ Render() *experiments.Table }, error) { return experiments.Fig6(opts) })
	run("7", func() (interface{ Render() *experiments.Table }, error) { return experiments.Fig7(opts) })
	if want["8"] {
		r, err := experiments.Fig8(opts)
		exitOn("8", err)
		printTable("8", r.Render())
		writeSVG("fig8", r.RenderSVG)
	}

	// Figures 9 and 10 share the expensive full-ATM runs.
	var fig9 *experiments.Fig9Result
	if want["9"] || want["10"] {
		start := time.Now()
		var err error
		fig9, err = experiments.Fig9(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure 9: %v\n", err)
			os.Exit(1)
		}
		if want["9"] {
			if _, err := fig9.Render().WriteTo(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "figure 9: render: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("  [figure 9 took %v]\n\n", time.Since(start).Round(time.Millisecond))
			writeSVG("fig9", fig9.RenderSVG)
		}
	}
	if want["10"] {
		r, err := experiments.Fig10(opts, fig9)
		exitOn("10", err)
		printTable("10", r.Render())
		writeSVG("fig10", r.RenderSVG)
	}

	var fig12 *experiments.Fig12Result
	if want["12"] || want["13"] {
		start := time.Now()
		var err error
		fig12, err = experiments.Fig12(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure 12: %v\n", err)
			os.Exit(1)
		}
		if want["12"] {
			if _, err := fig12.Render().WriteTo(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "figure 12: render: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("  [figure 12 took %v]\n\n", time.Since(start).Round(time.Millisecond))
			writeSVG("fig12", fig12.RenderSVG)
		}
	}
	if want["13"] {
		r, err := experiments.Fig13(opts, fig12)
		exitOn("13", err)
		printTable("13", r.Render())
		writeSVG("fig13", r.RenderSVG)
	}
	if want["methods"] {
		r, err := experiments.Methods(opts)
		exitOn("methods", err)
		printTable("methods", r.Render())
	}
	if want["stability"] {
		r, err := experiments.Stability(opts)
		exitOn("stability", err)
		printTable("stability", r.Render())
	}
	if want["epsilon"] {
		r, err := experiments.Epsilon(opts, nil)
		exitOn("epsilon", err)
		printTable("epsilon", r.Render())
	}
}
