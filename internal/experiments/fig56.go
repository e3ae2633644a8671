package experiments

import (
	"fmt"

	"flexmap/internal/metrics"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

// Fig56Result is the evaluation matrix of one cluster, every PUMA
// benchmark under every compared engine, as the two figures that read
// it: Fig. 5's JCT normalized to hadoop-64m and Fig. 6's job efficiency.
// The benchmark module's paper sequence prints each cluster through
// RenderFig5 and RenderFig6.
type Fig56Result struct {
	Fig5, Fig6 *Table
}

// RenderFig5 prints the normalized-JCT table.
func (r *Fig56Result) RenderFig5() string { return r.Fig5.Render() }

// RenderFig6 prints the efficiency table.
func (r *Fig56Result) RenderFig6() string { return r.Fig6.Render() }

// Fig56 runs the matrix on the named testbed ("physical" or "virtual"),
// the two environments of Fig. 5/6.
func Fig56(cfg Config, clusterName string) (*Fig56Result, error) {
	cfg = cfg.withDefaults()
	var def clusterDef
	switch clusterName {
	case "physical":
		def = physicalDef()
	case "virtual":
		def = virtualDef(cfg.Seed)
	default:
		return nil, fmt.Errorf("experiments: unknown Fig.5 cluster %q (want physical or virtual)", clusterName)
	}

	engines := comparedEngines()
	var jobs []simJob
	for _, bench := range cfg.Benchmarks {
		p, err := puma.GetProfile(bench)
		if err != nil {
			return nil, err
		}
		input := smallInput(p, cfg.Scale)
		for _, eng := range engines {
			bench, eng := bench, eng
			jobs = append(jobs, simJob{fmt.Sprintf("fig56/%s/%s/%s", clusterName, bench, eng), func() (*runner.Result, error) {
				return runOne(cfg, def, bench, input, eng)
			}})
		}
	}
	results, err := runJobs(cfg, jobs)
	if err != nil {
		return nil, err
	}
	columns := []string{"benchmark"}
	for _, eng := range engines {
		columns = append(columns, eng.String())
	}
	fig5 := Panel{Name: clusterName, Columns: columns, Caption: []Line{{label(fmt.Sprintf(
		"Fig. 5 — normalized JCT, %s cluster (baseline %s = 1.00)", clusterName, Baseline64))}}}
	// The Fig. 6 header keeps "(baseline hadoop-64m = 1.00)" over raw
	// efficiencies although nothing there is normalized: dropping it
	// moves paperfigs bytes, so it waits for the one golden reset that
	// also brings the Hadoop-fidelity changes.
	fig6 := Panel{Name: clusterName, Columns: columns, Caption: []Line{{label(fmt.Sprintf(
		"Fig. 6 — job efficiency, %s cluster (baseline %s = 1.00)", clusterName, Baseline64))}}}
	for bi, bench := range cfg.Benchmarks {
		sums := make([]metrics.Summary, len(engines))
		for ei := range engines {
			sums[ei] = metrics.Summarize(results[bi*len(engines)+ei].JobResult)
		}
		norm, err := metrics.NormalizeTo(Baseline64, sums)
		if err != nil {
			return nil, err
		}
		row5, row6 := []Cell{label(bench.Short())}, []Cell{label(bench.Short())}
		for _, sum := range sums {
			row5 = append(row5, num("%.2f", norm[sum.Engine]))
			row6 = append(row6, num("%.2f", sum.Efficiency))
		}
		fig5.Rows = append(fig5.Rows, row5)
		fig6.Rows = append(fig6.Rows, row6)
	}
	return &Fig56Result{Fig5: &Table{Panels: []Panel{fig5}}, Fig6: &Table{Panels: []Panel{fig6}}}, nil
}
