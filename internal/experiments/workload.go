package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"flexmap/internal/metrics"
	"flexmap/internal/mr"
	"flexmap/internal/parallel"
	"flexmap/internal/puma"
	"flexmap/internal/randutil"
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

// WorkloadFigureResult holds cluster-level metrics per offered load ×
// engine.
type WorkloadFigureResult struct {
	Loads   []float64
	Engines []string
	Jobs    int
	// P50/P95/P99[load][engine] are job-latency percentiles in seconds.
	P50, P95, P99 map[float64]map[string]float64
	// Goodput[load][engine] is successfully processed input in MB per
	// second of workload span.
	Goodput map[float64]map[string]float64
	// Util[load][engine] is busy slot-seconds over available slot-seconds.
	Util map[float64]map[string]float64
	// QueueWait[load][engine] is the mean submission→first-container wait.
	QueueWait map[float64]map[string]float64
	// MaxConcurrent[load][engine] is the peak number of jobs in flight.
	MaxConcurrent map[float64]map[string]int
}

// WorkloadFigure runs the workload figure: an open stream of mixed-size
// wordcount jobs arriving Poisson at each offered load on the virtual
// 20-node cluster, the whole stream under stock Hadoop then under
// FlexMap, fair-share arbitration between concurrent jobs.
func WorkloadFigure(cfg Config) (*WorkloadFigureResult, error) {
	return workloadFigure(cfg, WorkloadLoads)
}

// WorkloadFigureLoads runs the figure over a custom offered-load grid
// (tests use short grids matched to their scaled-down job lengths).
func WorkloadFigureLoads(cfg Config, loads []float64) (*WorkloadFigureResult, error) {
	return workloadFigure(cfg, loads)
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

func workloadFigure(cfg Config, loads []float64) (*WorkloadFigureResult, error) {
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

	out := &WorkloadFigureResult{
		Loads:         loads,
		Jobs:          WorkloadJobCount,
		P50:           map[float64]map[string]float64{},
		P95:           map[float64]map[string]float64{},
		P99:           map[float64]map[string]float64{},
		Goodput:       map[float64]map[string]float64{},
		Util:          map[float64]map[string]float64{},
		QueueWait:     map[float64]map[string]float64{},
		MaxConcurrent: map[float64]map[string]int{},
	}
	for _, eng := range engines {
		out.Engines = append(out.Engines, eng.String())
	}

	var jobs []parallel.Job
	for _, load := range loads {
		for _, eng := range engines {
			load, eng := load, eng
			jobs = append(jobs, parallel.Job{
				Name: fmt.Sprintf("workload/%s/load-%g", eng, load),
				Run: func(context.Context, *randutil.Source) (any, error) {
					sc := workloadScenario(cfg, eng, load, small, large)
					if cfg.TraceDir != "" {
						sc.Trace.JSONLPath = filepath.Join(cfg.TraceDir,
							sanitizeTraceName(sc.Name)+".jsonl")
					}
					return runner.RunWorkload(sc)
				},
			})
		}
	}
	batch := parallel.Pool{Workers: cfg.Parallel, BaseSeed: cfg.Seed, OnProgress: cfg.Progress}.
		RunAll(context.Background(), jobs)
	if err := parallel.FirstError(batch); err != nil {
		return nil, err
	}

	i := 0
	for _, load := range loads {
		out.P50[load] = map[string]float64{}
		out.P95[load] = map[string]float64{}
		out.P99[load] = map[string]float64{}
		out.Goodput[load] = map[string]float64{}
		out.Util[load] = map[string]float64{}
		out.QueueWait[load] = map[string]float64{}
		out.MaxConcurrent[load] = map[string]int{}
		for _, eng := range engines {
			r, _ := batch[i].Value.(*runner.WorkloadResult)
			i++
			if r == nil {
				return nil, fmt.Errorf("workload: cell %s/load-%g returned no result", eng, load)
			}
			name := eng.String()
			out.P50[load][name] = float64(r.LatencyP50)
			out.P95[load][name] = float64(r.LatencyP95)
			out.P99[load][name] = float64(r.LatencyP99)
			out.Goodput[load][name] = r.GoodputBytesPerSec / float64(runner.MB)
			out.Util[load][name] = r.Utilization
			out.QueueWait[load][name] = float64(r.MeanQueueWait)
			out.MaxConcurrent[load][name] = r.MaxConcurrent
		}
	}
	return out, nil
}

// Render prints the workload figure's table.
func (r *WorkloadFigureResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Workload — job latency & goodput vs offered load (%d mixed wordcount jobs, virtual 20-node cluster, fair policy)\n\n", r.Jobs)
	header := []string{"jobs/hr", "engine", "p50", "p95", "p99", "goodput-MB/s", "util", "q-wait", "max-conc"}
	var rows [][]string
	for _, load := range r.Loads {
		for _, name := range r.Engines {
			rows = append(rows, []string{
				fmt.Sprintf("%g", load),
				name,
				fmt.Sprintf("%.1fs", r.P50[load][name]),
				fmt.Sprintf("%.1fs", r.P95[load][name]),
				fmt.Sprintf("%.1fs", r.P99[load][name]),
				fmt.Sprintf("%.2f", r.Goodput[load][name]),
				fmt.Sprintf("%.3f", r.Util[load][name]),
				fmt.Sprintf("%.1fs", r.QueueWait[load][name]),
				fmt.Sprintf("%d", r.MaxConcurrent[load][name]),
			})
		}
	}
	b.WriteString(metrics.Table(header, rows))
	b.WriteString("\n(same arrivals and sizes per seed; under contention FlexMap's elastic tasks absorb slow\n containers instead of straggling, so its tail latency grows later on the load axis)\n")
	return b.String()
}
