// Command paperfigs regenerates the tables and figures of the FlexMap
// paper (IPDPS 2017) from the simulator and prints them as aligned text
// tables.
//
// Usage:
//
//	paperfigs [-exp all|tableI|tableII|fig1|fig2|fig3|fig5|fig6|fig7|fig8|overhead|ablation|skew|faults|workload|netplace|autoscale]
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
// total wall-clock goes to stderr. An unknown -exp, a -scale below 1, a
// negative -parallel or a zero -seed exits 2, like a malformed flag.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"flexmap/internal/experiments"
	"flexmap/internal/puma"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: figures go to stdout,
// progress, timing and errors to stderr, and it returns the process exit
// code instead of calling os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run (all, tableI, tableII, fig1, fig2, fig3, fig5, fig6, fig7, fig8, overhead, ablation, skew, faults, workload, netplace, autoscale; netplace and autoscale are opt-in and not part of all)")
	seed := fs.Int64("seed", 42, "simulation seed")
	scale := fs.Int64("scale", 1, "divide paper input sizes by this factor")
	benchList := fs.String("bench", "", "comma-separated benchmark subset (short names, e.g. WC,GR)")
	workers := fs.Int("parallel", 0, "concurrent simulations per experiment (0 = one per core, 1 = serial)")
	progress := fs.Bool("progress", false, "report per-grid simulation progress on stderr")
	traceDir := fs.String("trace-dir", "", "write one event-trace JSONL per simulation into this directory")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	errorf := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "paperfigs: "+format+"\n", a...)
		return 1
	}
	// A flag value the run would silently reinterpret is a usage error,
	// exit 2 like a parse error: Config reads scale ≤ 0 as full scale and
	// seed 0 as seed 42, and a negative worker count as one per core.
	badFlag := func(name string, v any, want string) int {
		fmt.Fprintf(stderr, "paperfigs: invalid value %v for flag -%s: want %s\n", v, name, want)
		return 2
	}
	switch {
	case *scale < 1:
		return badFlag("scale", *scale, "≥ 1")
	case *workers < 0:
		return badFlag("parallel", *workers, "≥ 0")
	case *seed == 0:
		return badFlag("seed", *seed, "a nonzero seed (0 would run the default seed 42)")
	}

	cfg := experiments.Config{Seed: *seed, Scale: *scale, Parallel: *workers, TraceDir: *traceDir}
	type experiment struct {
		name string
		fn   func() (string, error)
	}
	render := func(r interface{ Render() string }, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
	fig56 := func(which string) func() (string, error) {
		return func() (string, error) {
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
		}
	}
	// all runs every experiment below except netplace and autoscale, in
	// this order. Those two are opt-in: "all" reproduces the paper's
	// figures, which are defined on the flat network model and a static
	// fleet, and its output must stay byte-identical whether or not the
	// topology fabric and the elastic membership layer exist.
	exps := []experiment{
		{"tableI", func() (string, error) { return experiments.TableI(), nil }},
		{"tableII", func() (string, error) { return experiments.TableII(), nil }},
		{"fig1", func() (string, error) { return render(experiments.Fig1(cfg)) }},
		{"fig2", func() (string, error) { return render(experiments.Fig2(cfg)) }},
		{"fig3", func() (string, error) { return render(experiments.Fig3(cfg)) }},
		{"fig5", fig56("fig5")},
		{"fig6", fig56("fig6")},
		{"overhead", func() (string, error) { return render(experiments.Overhead(cfg)) }},
		{"fig7", func() (string, error) { return render(experiments.Fig7(cfg)) }},
		{"fig8", func() (string, error) { return render(experiments.Fig8(cfg)) }},
		{"ablation", func() (string, error) { return render(experiments.Ablation(cfg)) }},
		{"skew", func() (string, error) { return render(experiments.Skew(cfg)) }},
		{"faults", func() (string, error) { return render(experiments.FaultTolerance(cfg)) }},
		{"workload", func() (string, error) { return render(experiments.WorkloadFigure(cfg)) }},
		{"netplace", func() (string, error) { return render(experiments.NetPlace(cfg)) }},
		{"autoscale", func() (string, error) { return render(experiments.Autoscale(cfg)) }},
	}
	names := []string{"all"}
	for _, e := range exps {
		names = append(names, e.name)
	}
	if !slices.Contains(names, *exp) {
		return badFlag("exp", fmt.Sprintf("%q", *exp), "one of "+strings.Join(names, ", "))
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return errorf("%v", err)
		}
	}
	if *progress {
		// Stderr only: stdout must stay byte-identical with or without
		// progress reporting.
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "\rpaperfigs: %d/%d sims", done, total)
			if done == total {
				fmt.Fprintln(stderr)
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
				return errorf("unknown benchmark %q", name)
			}
			cfg.Benchmarks = append(cfg.Benchmarks, b)
		}
	}

	start := time.Now()
	for _, e := range exps {
		optIn := e.name == "netplace" || e.name == "autoscale"
		if *exp != e.name && (*exp != "all" || optIn) {
			continue
		}
		out, err := e.fn()
		if err != nil {
			return errorf("%s: %v", e.name, err)
		}
		fmt.Fprintln(stdout, out)
	}

	n := *workers
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(stderr, "paperfigs: done in %v (%d workers)\n", time.Since(start).Round(time.Millisecond), n)
	return 0
}
