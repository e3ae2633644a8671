// Command paperfigs regenerates the tables and figures of the FlexMap
// paper (IPDPS 2017) from the simulator and prints them as aligned text
// tables.
//
// Usage:
//
//	paperfigs [-exp all|tableI|tableII|fig1|fig2|fig3|fig5|fig6|fig7|fig8|overhead|faults|workload|netplace|autoscale]
//	          [-seed N] [-scale N] [-bench WC,GR,...] [-parallel N]
//	          [-trace-dir DIR]
//
// netplace (reduce placement × core oversubscription on the topology
// fabric) and autoscale (fleet elasticity × engine, cost vs makespan)
// are opt-in: they are not part of -exp all, whose output reproduces
// the paper's static flat-network figures byte for byte.
//
// -scale divides the paper's input sizes (1 = full scale). -parallel
// bounds how many simulations run concurrently (0 = one per core,
// 1 = serial); the printed figures are bit-for-bit identical at any
// setting. -trace-dir writes one event-trace JSONL file per simulation
// into DIR (also byte-identical at any -parallel setting). Each
// experiment prints the series the corresponding paper figure plots;
// total wall-clock goes to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"flexmap/internal/experiments"
	"flexmap/internal/puma"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, tableI, tableII, fig1, fig2, fig3, fig5, fig6, fig7, fig8, overhead, ablation, skew, faults, workload, netplace, autoscale; netplace and autoscale are opt-in and not part of all)")
	seed := flag.Int64("seed", 42, "simulation seed")
	scale := flag.Int64("scale", 1, "divide paper input sizes by this factor")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (short names, e.g. WC,GR)")
	workers := flag.Int("parallel", 0, "concurrent simulations per experiment (0 = one per core, 1 = serial)")
	progress := flag.Bool("progress", false, "report per-grid simulation progress on stderr")
	traceDir := flag.String("trace-dir", "", "write one event-trace JSONL per simulation into this directory")
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Scale: *scale, Parallel: *workers, TraceDir: *traceDir}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	if *progress {
		// Stderr only: stdout must stay byte-identical with or without
		// progress reporting.
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rpaperfigs: %d/%d sims", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	if *benchList != "" {
		short := map[string]puma.Benchmark{}
		for _, b := range puma.All {
			short[b.Short()] = b
		}
		for _, name := range strings.Split(*benchList, ",") {
			b, ok := short[strings.ToUpper(strings.TrimSpace(name))]
			if !ok {
				fatalf("unknown benchmark %q", name)
			}
			cfg.Benchmarks = append(cfg.Benchmarks, b)
		}
	}

	start := time.Now()
	defer func() {
		n := *workers
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(os.Stderr, "paperfigs: done in %v (%d workers)\n", time.Since(start).Round(time.Millisecond), n)
	}()

	run := func(name string, fn func() (string, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		out, err := fn()
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		fmt.Println(out)
	}

	run("tableI", func() (string, error) { return experiments.TableI(), nil })
	run("tableII", func() (string, error) { return experiments.TableII(), nil })
	run("fig1", func() (string, error) {
		r, err := experiments.Fig1(cfg)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("fig2", func() (string, error) {
		r, err := experiments.Fig2(cfg)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("fig3", func() (string, error) {
		r, err := experiments.Fig3(cfg)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	for _, which := range []string{"fig5", "fig6"} {
		which := which
		run(which, func() (string, error) {
			var parts []string
			for _, clusterName := range []string{"physical", "virtual"} {
				r, err := experiments.Fig56(cfg, clusterName)
				if err != nil {
					return "", err
				}
				if which == "fig5" {
					parts = append(parts, r.RenderFig5())
				} else {
					parts = append(parts, r.RenderFig6())
				}
			}
			return strings.Join(parts, "\n"), nil
		})
	}
	run("overhead", func() (string, error) {
		r, err := experiments.Overhead(cfg)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("fig7", func() (string, error) {
		r, err := experiments.Fig7(cfg)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("fig8", func() (string, error) {
		r, err := experiments.Fig8(cfg)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("ablation", func() (string, error) {
		r, err := experiments.Ablation(cfg)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("skew", func() (string, error) {
		r, err := experiments.Skew(cfg)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("faults", func() (string, error) {
		r, err := experiments.FaultTolerance(cfg)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("workload", func() (string, error) {
		r, err := experiments.WorkloadFigure(cfg)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	// netplace is opt-in only: "all" reproduces the paper's figures, which
	// are defined on the flat network model, and its output must stay
	// byte-identical whether or not the topology fabric exists.
	if *exp == "netplace" {
		r, err := experiments.NetPlace(cfg)
		if err != nil {
			fatalf("netplace: %v", err)
		}
		fmt.Println(r.Render())
	}
	// autoscale is likewise opt-in: the paper's figures are defined on a
	// static fleet, and "all" must stay byte-identical with or without the
	// elastic membership layer.
	if *exp == "autoscale" {
		r, err := experiments.Autoscale(cfg)
		if err != nil {
			fatalf("autoscale: %v", err)
		}
		fmt.Println(r.Render())
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paperfigs: "+format+"\n", args...)
	os.Exit(1)
}
