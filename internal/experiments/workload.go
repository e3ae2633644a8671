package experiments

import (
	"fmt"
	"path/filepath"

	"flexmap/internal/mr"
	"flexmap/internal/parallel"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
	"flexmap/internal/workload"
)

// WorkloadLoads is the default offered-load grid of the workload figure,
// in job arrivals per hour. The paper evaluates single jobs in
// isolation; this figure extends the comparison to an open multi-job
// cluster, where elastic tasks pay off a third time: under contention a
// FlexMap job rides out slow containers instead of straggling, so tail
// latency and goodput degrade later on the load axis than stock Hadoop.
var WorkloadLoads = []float64{30, 60, 120}

// WorkloadJobCount is the number of arrivals per workload cell.
const WorkloadJobCount = 40

// workloadEngines is the engine pair the workload figure compares (the
// fault figure's pair: SkewTune's repartition protocol is single-job).
func workloadEngines() []runner.Engine {
	return []runner.Engine{
		{Kind: runner.Hadoop, SplitMB: 64},
		{Kind: runner.FlexMap},
	}
}

// WorkloadFigure runs the workload figure: an open stream of mixed-size
// wordcount jobs arriving Poisson at each offered load on the virtual
// 20-node cluster, the whole stream under stock Hadoop then under
// FlexMap, fair-share arbitration between concurrent jobs. A row is named
// "<load>/<engine>": job-latency percentiles in seconds, goodput
// (successfully processed input in MB per second of workload span),
// utilization (busy over available slot-seconds), the mean
// submission→first-container wait and the peak number of jobs in flight.
func WorkloadFigure(cfg Config) (*Table, error) {
	return workloadFigure(cfg, WorkloadLoads)
}

// workloadScenario builds one cell: every class runs the given engine so
// the comparison is engine-pure; sizes and arrival times are identical
// across engines at a given seed because both derive from the scenario
// seed, not the engine. Specs are the wordcount profile with a reducer
// count matched to the size class.
func workloadScenario(cfg Config, eng runner.Engine, load float64, small, large mr.JobSpec) runner.WorkloadScenario {
	def := virtualDef(cfg.Seed)
	return runner.WorkloadScenario{
		Name:    fmt.Sprintf("workload/%s/load-%g", eng, load),
		Cluster: def.factory,
		Seed:    cfg.Seed,
		Pattern: workload.Pattern{Jobs: WorkloadJobCount, Rate: load / 3600},
		Classes: []runner.WorkloadClass{
			{Name: "small", Weight: 3,
				MinBytes: 1 * runner.GB / cfg.Scale, MaxBytes: 2 * runner.GB / cfg.Scale,
				Engine: eng, Spec: small},
			{Name: "large", Weight: 1,
				MinBytes: 4 * runner.GB / cfg.Scale, MaxBytes: 8 * runner.GB / cfg.Scale,
				Engine: eng, Spec: large},
		},
		Policy: "fair",
	}
}

// workloadFigure runs the figure over an offered-load grid (tests use
// short grids matched to their scaled-down job lengths).
func workloadFigure(cfg Config, loads []float64) (*Table, error) {
	if len(loads) < 1 {
		return nil, fmt.Errorf("workload: empty offered-load grid")
	}
	cfg = cfg.withDefaults()
	engines := workloadEngines()
	small, err := puma.Spec(puma.WordCount, "input", 4)
	if err != nil {
		return nil, err
	}
	large, err := puma.Spec(puma.WordCount, "input", 8)
	if err != nil {
		return nil, err
	}

	var names []string
	for _, load := range loads {
		for _, eng := range engines {
			names = append(names, fmt.Sprintf("workload/%s/load-%g", eng, load))
		}
	}
	batch, err := parallel.Map(cfg.Parallel, names, func(i int) (*runner.WorkloadResult, error) {
		load, eng := loads[i/len(engines)], engines[i%len(engines)]
		sc := workloadScenario(cfg, eng, load, small, large)
		if cfg.TraceDir != "" {
			sc.Trace.JSONLPath = filepath.Join(cfg.TraceDir,
				sanitizeTraceName(sc.Name)+".jsonl")
		}
		return runner.RunWorkload(sc)
	}, cfg.Progress)
	if err != nil {
		return nil, err
	}

	panel := Panel{Columns: []string{"jobs/hr", "engine", "p50", "p95", "p99", "goodput-MB/s", "util", "q-wait", "max-conc"}}
	for i, r := range batch {
		load, eng := loads[i/len(engines)], engines[i%len(engines)]
		if r == nil {
			return nil, fmt.Errorf("workload: cell %s/load-%g returned no result", eng, load)
		}
		panel.Rows = append(panel.Rows, []Cell{label(fmt.Sprintf("%g", load)), label(eng.String()),
			num("%.1fs", float64(r.LatencyP50)), num("%.1fs", float64(r.LatencyP95)), num("%.1fs", float64(r.LatencyP99)),
			num("%.2f", r.GoodputBytesPerSec/float64(runner.MB)), num("%.3f", r.Utilization),
			num("%.1fs", float64(r.MeanQueueWait)), num("%.0f", float64(r.MaxConcurrent))})
	}
	return &Table{
		Title: fmt.Sprintf("Workload — job latency & goodput vs offered load (%d mixed wordcount jobs, virtual 20-node cluster, fair policy)",
			WorkloadJobCount),
		Caption: []Line{{}},
		Panels:  []Panel{panel},
		Notes: []Line{{}, {label("(same arrivals and sizes per seed; under contention FlexMap's elastic tasks absorb slow")},
			{label(" containers instead of straggling, so its tail latency grows later on the load axis)")}},
	}, nil
}
