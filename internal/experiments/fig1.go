package experiments

import (
	"fmt"

	"flexmap/internal/metrics"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

// Fig1 runs wordcount under stock Hadoop (64 MB splits) on the physical
// and virtual clusters and tabulates the map-runtime distributions: the
// paper's Fig. 1 evidence that heterogeneity imbalances map tasks. Besides
// max/min, the tail-robust p90/p10 ratio is the paper-comparable spread
// (paper: ≈2× physical, ≈5× virtual).
func Fig1(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	p, err := puma.GetProfile(puma.WordCount)
	if err != nil {
		return nil, err
	}
	input := smallInput(p, cfg.Scale)
	eng := runner.Engine{Kind: runner.Hadoop, SplitMB: 64}

	res, err := runJobs(cfg, []simJob{
		{"fig1/physical", func() (*runner.Result, error) {
			return runOne(cfg, physicalDef(), puma.WordCount, input, eng)
		}},
		{"fig1/virtual", func() (*runner.Result, error) {
			return runOne(cfg, virtualDef(cfg.Seed), puma.WordCount, input, eng)
		}},
	})
	if err != nil {
		return nil, err
	}

	panel := Panel{Columns: []string{"cluster", "min(s)", "p50(s)", "max(s)", "max/min", "p90/p10"}}
	var notes []Line
	for i, name := range []string{"physical", "virtual"} {
		runtimes := metrics.MapRuntimes(res[i].JobResult)
		st := metrics.Describe(runtimes)
		spread, spread90 := 0.0, 0.0
		if st.Min > 0 {
			spread = st.Max / st.Min
		}
		if st.P10 > 0 {
			spread90 = st.P90 / st.P10
		}
		panel.Rows = append(panel.Rows, []Cell{label(name), num("%.1f", st.Min), num("%.1f", st.P50),
			num("%.1f", st.Max), num("%.1fx", spread), num("%.1fx", spread90)})
		hist := metrics.NewHistogram(runtimes, 0, st.Max, 20)
		notes = append(notes, Line{label(fmt.Sprintf("%-8s runtime histogram: %s", name, metrics.Sparkline(hist.PDF())))})
	}
	panel.Notes = append(notes, Line{label("(paper: slowest physical map ≈2x the fastest; ≈20% of virtual maps up to 5x slower)")})
	return &Table{
		Title:  "Fig. 1 — wordcount map runtimes in heterogeneous clusters (hadoop-64m)",
		Panels: []Panel{panel},
	}, nil
}
