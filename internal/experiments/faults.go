package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"flexmap/internal/faults"
	"flexmap/internal/metrics"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

// FaultRates is the default crash-rate grid of the fault-tolerance
// figure, in node crashes per node-hour. The paper evaluates only
// performance heterogeneity; this figure extends the comparison to
// fail-recover faults, where Late Task Binding pays off a second time:
// a crashed elastic task returns only its unprocessed BUs to the
// binding maps, while stock Hadoop re-runs whole fixed splits.
var FaultRates = []float64{0, 2, 4, 8}

// faultEngines is the engine pair the fault figure compares. SkewTune
// is excluded by design (runner rejects faults+skewtune: the
// repartition/recovery interplay is unmodeled).
func faultEngines() []runner.Engine {
	return []runner.Engine{
		{Kind: runner.Hadoop, SplitMB: 64},
		{Kind: runner.FlexMap},
	}
}

// FaultToleranceResult holds makespan, degradation and goodput per
// crash rate × engine.
type FaultToleranceResult struct {
	Bench   puma.Benchmark
	Rates   []float64
	Engines []string
	// JCT[rate][engine] is the raw makespan in seconds.
	JCT map[float64]map[string]float64
	// Norm[rate][engine] = JCT / JCT(same engine, rate 0): each engine's
	// degradation relative to its own fault-free run.
	Norm map[float64]map[string]float64
	// Goodput[rate][engine] = input bytes / (input + re-processed bytes).
	Goodput map[float64]map[string]float64
	// Faults[rate][engine] holds the failure/recovery counters.
	Faults map[float64]map[string]metrics.FaultSummary
}

// FaultTolerance runs the fault-tolerance figure: wordcount (small
// input) on the physical 12-node cluster under seeded crash injection,
// stock Hadoop vs FlexMap across the default crash-rate grid.
func FaultTolerance(cfg Config) (*FaultToleranceResult, error) {
	return faultTolerance(cfg, FaultRates)
}

// FaultToleranceRates runs the figure over a custom crash-rate grid
// (tests use short grids with rates matched to their scaled-down job
// lengths). The grid must start with rate 0: it is the normalization
// baseline.
func FaultToleranceRates(cfg Config, rates []float64) (*FaultToleranceResult, error) {
	return faultTolerance(cfg, rates)
}

func faultTolerance(cfg Config, rates []float64) (*FaultToleranceResult, error) {
	if len(rates) == 0 || rates[0] != 0 {
		return nil, fmt.Errorf("faults: rate grid must start with the 0 baseline, got %v", rates)
	}
	cfg = cfg.withDefaults()
	def := physicalDef()
	bench := puma.WordCount
	p, err := puma.GetProfile(bench)
	if err != nil {
		return nil, err
	}
	// The Table II "large" input: crash recovery differentiates engines
	// only when the job is long relative to detection latency and node
	// downtime — nodes crash, rejoin, and crash again within one run.
	input := largeInput(p, cfg.Scale)
	engines := faultEngines()

	out := &FaultToleranceResult{
		Bench:   bench,
		Rates:   rates,
		JCT:     map[float64]map[string]float64{},
		Norm:    map[float64]map[string]float64{},
		Goodput: map[float64]map[string]float64{},
		Faults:  map[float64]map[string]metrics.FaultSummary{},
	}
	for _, eng := range engines {
		out.Engines = append(out.Engines, eng.String())
	}

	var jobs []simJob
	for _, rate := range rates {
		for _, eng := range engines {
			rate, eng := rate, eng
			name := fmt.Sprintf("faults/%s/%s/crash-%g", bench, eng, rate)
			jobs = append(jobs, simJob{name, func() (*runner.Result, error) {
				c, _ := def.factory()
				spec, err := specFor(bench, c.TotalSlots())
				if err != nil {
					return nil, err
				}
				sc := runner.Scenario{
					Name:      fmt.Sprintf("%s/%s/crash-%g", def.name, bench, rate),
					Cluster:   def.factory,
					Seed:      cfg.Seed,
					InputSize: input,
					Faults:    faults.Plan{CrashRate: rate},
				}
				traceInto(cfg, &sc, eng)
				res, err := runner.Run(sc, spec, eng)
				// A job that gives up (stock's bounded retries exhausted)
				// is an experimental outcome, not a harness error: keep
				// its partial result and render the row as failed.
				var failed *runner.JobFailedError
				if errors.As(err, &failed) {
					return failed.Result, nil
				}
				return res, err
			}})
		}
	}
	results, err := runJobs(cfg, jobs)
	if err != nil {
		return nil, err
	}

	i := 0
	for _, rate := range rates {
		out.JCT[rate] = map[string]float64{}
		out.Norm[rate] = map[string]float64{}
		out.Goodput[rate] = map[string]float64{}
		out.Faults[rate] = map[string]metrics.FaultSummary{}
		for _, eng := range engines {
			r := results[i]
			i++
			name := eng.String()
			jct := float64(r.JCT())
			if r.Failed {
				// An infinite makespan orders failed runs after every
				// finished one in Degradation comparisons.
				jct = math.Inf(1)
			}
			out.JCT[rate][name] = jct
			out.Goodput[rate][name] = r.Goodput(r.InputBytes)
			out.Faults[rate][name] = metrics.SummarizeFaults(r.JobResult)
		}
	}
	for _, rate := range rates {
		for _, name := range out.Engines {
			base := out.JCT[0][name]
			if base <= 0 {
				return nil, fmt.Errorf("faults: zero fault-free makespan for %s", name)
			}
			out.Norm[rate][name] = out.JCT[rate][name] / base
		}
	}
	return out, nil
}

// Degradation returns an engine's makespan at a rate normalized to its
// own fault-free makespan (the figure's headline statistic).
func (r *FaultToleranceResult) Degradation(engine string, rate float64) float64 {
	return r.Norm[rate][engine]
}

// Render prints the fault-tolerance table.
func (r *FaultToleranceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault tolerance — makespan & goodput vs crash rate (%s large, physical 12-node cluster)\n\n", r.Bench.Short())
	header := []string{"crash/node-hr", "engine", "jct", "x(no-fault)", "goodput",
		"lost", "rejoined", "crashed", "retries", "reproc-MB"}
	var rows [][]string
	for _, rate := range r.Rates {
		for _, name := range r.Engines {
			f := r.Faults[rate][name]
			jct, norm := fmt.Sprintf("%.1fs", r.JCT[rate][name]), fmt.Sprintf("%.2f", r.Norm[rate][name])
			if math.IsInf(r.JCT[rate][name], 1) {
				jct, norm = "failed", "inf"
			}
			rows = append(rows, []string{
				fmt.Sprintf("%g", rate),
				name,
				jct,
				norm,
				fmt.Sprintf("%.3f", r.Goodput[rate][name]),
				fmt.Sprintf("%d", f.NodesLost),
				fmt.Sprintf("%d", f.NodesRejoined),
				fmt.Sprintf("%d", f.AttemptsCrashed),
				fmt.Sprintf("%d", f.TaskRetries),
				fmt.Sprintf("%d", f.ReprocessedBytes/runner.MB),
			})
		}
	}
	b.WriteString(metrics.Table(header, rows))
	b.WriteString("\n(stock re-runs whole fixed splits after a crash; FlexMap returns only unprocessed BUs\n to the binding maps and rescues the processed prefix, so it degrades less at every rate)\n")
	return b.String()
}
