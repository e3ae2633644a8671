package experiments

import (
	"flexmap/internal/cluster"
	"flexmap/internal/metrics"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

// Overhead reproduces §IV-D: wordcount on a 6-node homogeneous cluster,
// where horizontal scaling is effectively disabled and any FlexMap/stock
// difference is pure elastic-sizing overhead (the paper measured ≈5%
// penalty). The "penalty" note cell is positive when FlexMap is slower.
func Overhead(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	p, err := puma.GetProfile(puma.WordCount)
	if err != nil {
		return nil, err
	}
	input := smallInput(p, cfg.Scale)
	def := clusterDef{"homogeneous-6", func() (*cluster.Cluster, cluster.Interferer) {
		return cluster.HomogeneousPaper(6), nil
	}}

	results, err := runJobs(cfg, []simJob{
		{"overhead/hadoop-64m", func() (*runner.Result, error) {
			return runOne(cfg, def, puma.WordCount, input, runner.Engine{Kind: runner.Hadoop, SplitMB: 64})
		}},
		{"overhead/flexmap", func() (*runner.Result, error) {
			return runOne(cfg, def, puma.WordCount, input, runner.Engine{Kind: runner.FlexMap})
		}},
	})
	if err != nil {
		return nil, err
	}
	stock, flex := float64(results[0].JCT()), float64(results[1].JCT())
	return &Table{
		Title: "§IV-D — FlexMap overhead on a homogeneous 6-node cluster (wordcount)",
		Panels: []Panel{{
			Columns: []string{"engine", "JCT(s)"},
			Rows:    [][]Cell{{label("hadoop-64m"), num("%.1f", stock)}, {label("flexmap"), num("%.1f", flex)}},
			Notes: []Line{{label("FlexMap penalty: "), named("penalty", "%+.1f%%", -metrics.SpeedupPercent(flex, stock)),
				label(" (paper: ≈5% penalty)")}},
		}},
	}, nil
}
