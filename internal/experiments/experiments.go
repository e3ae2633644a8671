// Package experiments contains one harness per table and figure of the
// paper's evaluation (§II motivation and §IV). Each harness runs the
// needed simulations through internal/runner and returns a Table: the
// rows and series the paper reports as typed cells that Render prints and
// Lookup reads by panel, row and column name. Steps orders them into the
// evaluation sequence that cmd/paperfigs runs; EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"fmt"
	"path/filepath"
	"strings"

	"flexmap/internal/cluster"
	"flexmap/internal/mr"
	"flexmap/internal/parallel"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

// Config scopes an experiment run.
type Config struct {
	// Seed drives placement, interference, noise and the biased reduce
	// dispatcher. The same seed reproduces a run bit-for-bit, serial or
	// parallel. Zero is a sentinel meaning "the default seed 42" — an
	// explicit Seed: 0 cannot be selected (use any other value instead).
	Seed int64
	// Scale divides the paper's Table II input sizes: 1 = paper scale,
	// larger values shrink inputs proportionally (tests use 16-64).
	Scale int64
	// Benchmarks restricts multi-benchmark experiments; nil = all eight.
	Benchmarks []puma.Benchmark
	// Parallel bounds how many simulations of a harness's scenario grid
	// run concurrently: 0 = one worker per core (GOMAXPROCS), 1 = serial.
	// Results are bit-for-bit identical at any setting — every run builds
	// all its RNG state locally from the scenario seed.
	Parallel int
	// Progress, when non-nil, receives (done, total) after each
	// simulation of a harness's grid completes, on the goroutine that
	// called the harness (see parallel.Map). It must write only to side
	// channels (stderr, a progress bar): the rendered figures must stay
	// byte-identical.
	Progress func(done, total int)
	// TraceDir, when non-empty, writes one event-trace JSONL file per
	// simulation into that directory, named <scenario>-<engine>.jsonl.
	// File contents are byte-identical at any Parallel setting: each run
	// emits its own stream stamped with its own virtual clock.
	TraceDir string
}

// withDefaults fills zero fields. Seed 0 means "default seed 42" by
// design (see the field comment); Parallel 0 passes through as "auto".
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = append([]puma.Benchmark(nil), puma.All...)
	}
	return c
}

// The four engine configurations every comparative figure uses, in the
// paper's legend order.
func comparedEngines() []runner.Engine {
	return []runner.Engine{
		{Kind: runner.Hadoop, SplitMB: 128},
		{Kind: runner.Hadoop, SplitMB: 64},
		{Kind: runner.SkewTune, SplitMB: 64},
		{Kind: runner.FlexMap},
	}
}

// fig8Engines is Fig. 8's engine set (adds the no-speculation ablation,
// drops the 128 MB block size).
func fig8Engines() []runner.Engine {
	return []runner.Engine{
		{Kind: runner.Hadoop, SplitMB: 64},
		{Kind: runner.HadoopNoSpec, SplitMB: 64},
		{Kind: runner.SkewTune, SplitMB: 64},
		{Kind: runner.FlexMap},
	}
}

// Baseline64 is the engine name Fig. 5 and Fig. 8 normalize against.
const Baseline64 = "hadoop-64m"

// clusterDef names a cluster factory for table rendering.
type clusterDef struct {
	name    string
	factory runner.ClusterFactory
}

func physicalDef() clusterDef {
	return clusterDef{"physical", func() (*cluster.Cluster, cluster.Interferer) {
		return cluster.Physical12(), nil
	}}
}

func virtualDef(seed int64) clusterDef {
	return clusterDef{"virtual", func() (*cluster.Cluster, cluster.Interferer) {
		c, inf := cluster.Virtual20(seed)
		return c, inf
	}}
}

// smallInput returns a benchmark's Table II "small" input size under the
// config's scale, and the large input likewise.
func smallInput(p puma.Profile, scale int64) int64 {
	return int64(p.SmallGB) * runner.GB / scale
}

func largeInput(p puma.Profile, scale int64) int64 {
	return int64(p.LargeGB) * runner.GB / scale
}

// specFor builds the job spec for a benchmark with one reducer per
// worker node — the classic PUMA configuration the paper runs.
func specFor(b puma.Benchmark, nodes int) (mr.JobSpec, error) {
	return puma.Spec(b, "input", nodes)
}

// runOne executes one benchmark × engine on a cluster definition with
// the small-input reducer count (one per node).
func runOne(cfg Config, def clusterDef, b puma.Benchmark, input int64, eng runner.Engine) (*runner.Result, error) {
	c, _ := def.factory()
	return runWith(cfg, def, b, input, eng, c.Size())
}

// runOneSlots uses one reducer per container slot — the configuration for
// the Table II "large" inputs, keeping reduce partitions near 1 GB.
func runOneSlots(cfg Config, def clusterDef, b puma.Benchmark, input int64, eng runner.Engine) (*runner.Result, error) {
	c, _ := def.factory()
	return runWith(cfg, def, b, input, eng, c.TotalSlots())
}

// simJob is one simulation of a harness's scenario grid: a name for
// error messages plus a closure that runs it. All randomness lives inside
// the closure (runner.Run seeds everything from the scenario), so jobs
// are safe to run concurrently in any order.
type simJob struct {
	name string
	run  func() (*runner.Result, error)
}

// runJobs fans a harness's simulation grid across cfg.Parallel workers
// (0 = GOMAXPROCS, 1 = serial) and returns the results in input order,
// or the first error in input order. A panicking scenario surfaces as
// that error rather than crashing the harness.
func runJobs(cfg Config, jobs []simJob) ([]*runner.Result, error) {
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.name
	}
	return parallel.Map(cfg.Parallel, names, func(i int) (*runner.Result, error) {
		return jobs[i].run()
	}, cfg.Progress)
}

func runWith(cfg Config, def clusterDef, b puma.Benchmark, input int64, eng runner.Engine, reducers int) (*runner.Result, error) {
	spec, err := specFor(b, reducers)
	if err != nil {
		return nil, err
	}
	sc := runner.Scenario{
		Name:      fmt.Sprintf("%s/%s", def.name, b),
		Cluster:   def.factory,
		Seed:      cfg.Seed,
		InputSize: input,
	}
	traceInto(cfg, &sc, eng)
	return runner.Run(sc, spec, eng)
}

// traceInto points the scenario's trace output into cfg.TraceDir (no-op
// when unset). Scenarios repeated with identical parameters overwrite
// the same file with identical bytes, so grids are safe at any level of
// parallelism.
func traceInto(cfg Config, sc *runner.Scenario, eng runner.Engine) {
	if cfg.TraceDir == "" {
		return
	}
	name := sanitizeTraceName(sc.Name + "-" + eng.String())
	sc.Trace.JSONLPath = filepath.Join(cfg.TraceDir, name+".jsonl")
}

// sanitizeTraceName flattens scenario names ("virtual/wordcount") into
// file-system-safe file stems.
func sanitizeTraceName(s string) string {
	return strings.NewReplacer("/", "-", " ", "-", "[", "-", "]", "").Replace(s)
}
