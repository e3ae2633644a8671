// Command paperfigs regenerates the tables and figures of the FlexMap
// paper (IPDPS 2017) from the simulator and prints them as aligned text
// tables.
//
// Usage:
//
//	paperfigs [-exp all|NAME] [-seed N] [-scale N] [-bench WC,GR,...]
//	          [-parallel N] [-progress] [-trace-dir DIR]
//
// The experiments are the steps of experiments.Steps, and `paperfigs -h`
// lists their names. -exp all runs every step in order except the
// opt-in ones, netplace (reduce placement × core oversubscription on the
// topology fabric) and autoscale (fleet elasticity × engine, cost vs
// makespan); its output reproduces the paper's static flat-network
// figures byte for byte.
//
// -scale divides the paper's input sizes (1 = full scale). -parallel
// bounds how many simulations run concurrently (0 = one per core,
// 1 = serial); the printed figures are bit-for-bit identical at any
// setting. -trace-dir writes one event-trace JSONL file per simulation
// into DIR (also byte-identical at any -parallel setting). Each
// experiment prints the series the corresponding paper figure plots;
// total wall-clock goes to stderr. An unknown -exp, a -scale below 1, a
// negative -parallel, a zero -seed and an unknown or repeated -bench
// name exit 2, like a malformed flag.
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
	names := []string{"all"}
	var optIn []string
	for _, s := range experiments.Steps(experiments.Config{}) {
		names = append(names, s.Name)
		if s.OptIn {
			optIn = append(optIn, s.Name)
		}
	}
	exp := fs.String("exp", "all", fmt.Sprintf("experiment to run (%s; %s are opt-in and not part of all)", strings.Join(names, ", "), strings.Join(optIn, " and ")))
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
	case !slices.Contains(names, *exp):
		return badFlag("exp", fmt.Sprintf("%q", *exp), "one of "+strings.Join(names, ", "))
	}
	// A repeated benchmark would run its simulations twice and print its
	// Fig. 8 row twice, so it is rejected like an unknown one.
	var benches []puma.Benchmark
	if *benchList != "" {
		var shorts []string
		for _, b := range puma.All {
			shorts = append(shorts, b.Short())
		}
		for _, name := range strings.Split(*benchList, ",") {
			i := slices.Index(shorts, strings.ToUpper(strings.TrimSpace(name)))
			switch {
			case i < 0:
				return badFlag("bench", fmt.Sprintf("%q", name), "comma-separated names from "+strings.Join(shorts, ", "))
			case slices.Contains(benches, puma.All[i]):
				return badFlag("bench", fmt.Sprintf("%q", *benchList), "each benchmark at most once")
			}
			benches = append(benches, puma.All[i])
		}
	}

	cfg := experiments.Config{Seed: *seed, Scale: *scale, Benchmarks: benches, Parallel: *workers, TraceDir: *traceDir}
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

	start := time.Now()
	for _, s := range experiments.Steps(cfg) {
		if *exp != s.Name && (*exp != "all" || s.OptIn) {
			continue
		}
		t, err := s.Run()
		if err != nil {
			return errorf("%s: %v", s.Name, err)
		}
		fmt.Fprintln(stdout, t.Render())
	}

	n := *workers
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(stderr, "paperfigs: done in %v (%d workers)\n", time.Since(start).Round(time.Millisecond), n)
	return 0
}
