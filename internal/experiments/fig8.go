package experiments

import (
	"fmt"

	"flexmap/internal/cluster"
	"flexmap/internal/metrics"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

// Fig8Fractions are the slow-node fractions of Fig. 8(a)-(d).
var Fig8Fractions = []float64{0.05, 0.10, 0.20, 0.40}

// Fig8 runs the multi-tenant sweep with the Table II "large" inputs: JCT
// normalized to hadoop-64m on the 40-node multi-tenant cluster, one panel
// per slow-node fraction, named like "40%".
func Fig8(cfg Config) (*Table, error) {
	return fig8(cfg, Fig8Fractions)
}

// fig8 runs the sweep over the given slow-node fractions (tests use a
// subset).
func fig8(cfg Config, fractions []float64) (*Table, error) {
	cfg = cfg.withDefaults()
	engines := fig8Engines()
	var jobs []simJob
	for _, frac := range fractions {
		frac := frac
		def := clusterDef{
			name: fmt.Sprintf("multitenant-%d%%", int(frac*100+0.5)),
			factory: func() (*cluster.Cluster, cluster.Interferer) {
				return cluster.MultiTenant40(frac, cfg.Seed)
			},
		}
		for _, bench := range cfg.Benchmarks {
			p, err := puma.GetProfile(bench)
			if err != nil {
				return nil, err
			}
			input := largeInput(p, cfg.Scale)
			for _, eng := range engines {
				bench, eng := bench, eng
				jobs = append(jobs, simJob{fmt.Sprintf("fig8/%s/%s/%s", def.name, bench, eng), func() (*runner.Result, error) {
					return runOneSlots(cfg, def, bench, input, eng)
				}})
			}
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
	out := &Table{
		Title:   "Fig. 8 — normalized JCT on the 40-node multi-tenant cluster",
		Caption: []Line{{}},
		Notes:   []Line{{}, {label("(paper: FlexMap ≈ speculation at 5%; FlexMap's gain expands as more nodes slow, up to ~40%)")}},
	}
	i := 0
	for _, frac := range fractions {
		pct := fmt.Sprintf("%d%%", int(frac*100+0.5))
		panel := Panel{Name: pct, Caption: []Line{{label("(" + pct + " slow nodes)")}}, Columns: columns}
		for _, bench := range cfg.Benchmarks {
			sums := make([]metrics.Summary, len(engines))
			for e := range engines {
				sums[e] = metrics.Summarize(results[i].JobResult)
				i++
			}
			norm, err := metrics.NormalizeTo(Baseline64, sums)
			if err != nil {
				return nil, err
			}
			row := []Cell{label(bench.Short())}
			for _, sum := range sums {
				row = append(row, num("%.2f", norm[sum.Engine]))
			}
			panel.Rows = append(panel.Rows, row)
		}
		out.Panels = append(out.Panels, panel)
	}
	return out, nil
}
