package experiments

import (
	"errors"
	"fmt"
	"math"

	"flexmap/internal/faults"
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

// FaultTolerance runs the fault-tolerance figure: wordcount (small
// input) on the physical 12-node cluster under seeded crash injection,
// stock Hadoop vs FlexMap across the default crash-rate grid. A row is
// named "<rate>/<engine>". Its x(no-fault) column is the makespan over
// the same engine's fault-free makespan, its goodput input bytes over
// input plus re-processed bytes; a run that gave up prints "failed" and
// "inf" over an infinite makespan and degradation.
func FaultTolerance(cfg Config) (*Table, error) {
	return faultTolerance(cfg, FaultRates)
}

// faultTolerance runs the figure over a crash-rate grid (tests use short
// grids with rates matched to their scaled-down job lengths). The grid
// must start with rate 0: it is the normalization baseline.
func faultTolerance(cfg Config, rates []float64) (*Table, error) {
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

	jcts := make([]float64, len(results))
	for i, r := range results {
		jcts[i] = float64(r.JCT())
		if r.Failed {
			// An infinite makespan orders a failed run after every
			// finished one when degradations are compared.
			jcts[i] = math.Inf(1)
		}
		if i < len(engines) && jcts[i] <= 0 {
			return nil, fmt.Errorf("faults: zero fault-free makespan for %s", engines[i].String())
		}
	}
	panel := Panel{Columns: []string{"crash/node-hr", "engine", "jct", "x(no-fault)", "goodput",
		"lost", "rejoined", "crashed", "retries", "reproc-MB"}}
	for i, r := range results {
		rate, eng := rates[i/len(engines)], engines[i%len(engines)]
		jct, norm := num("%.1fs", jcts[i]), num("%.2f", jcts[i]/jcts[i%len(engines)])
		if math.IsInf(jcts[i], 1) {
			jct.Text, norm.Text = "failed", "inf"
		}
		panel.Rows = append(panel.Rows, []Cell{label(fmt.Sprintf("%g", rate)), label(eng.String()), jct, norm,
			num("%.3f", r.Goodput(r.InputBytes)), num("%.0f", float64(r.NodesLost)), num("%.0f", float64(r.NodesRejoined)),
			num("%.0f", float64(r.AttemptsCrashed)), num("%.0f", float64(r.TaskRetries)),
			num("%.0f", float64(r.ReprocessedBytes/runner.MB))})
	}
	return &Table{
		Title:   fmt.Sprintf("Fault tolerance — makespan & goodput vs crash rate (%s large, physical 12-node cluster)", bench.Short()),
		Caption: []Line{{}},
		Panels:  []Panel{panel},
		Notes: []Line{{}, {label("(stock re-runs whole fixed splits after a crash; FlexMap returns only unprocessed BUs")},
			{label(" to the binding maps and rescues the processed prefix, so it degrades less at every rate)")}},
	}, nil
}
