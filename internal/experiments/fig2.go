package experiments

import (
	"flexmap/internal/cluster"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

// Fig2 demonstrates the paper's motivating example (Fig. 2): on a 3-node
// cluster with 1:1:3 capacities and full replication, stock Hadoop's
// uniform, statically-bound tasks cannot give the fast node a
// capacity-proportional share of the data (ideal 3/5), while FlexMap
// can. Each row is an engine's input mapped per node, the fast node's
// share of it and the JCT.
func Fig2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	def := clusterDef{"motivating", func() (*cluster.Cluster, cluster.Interferer) {
		return cluster.Motivating3(), nil
	}}
	// A few waves of 64 MB tasks on 3 single-slot nodes exposes the
	// static-binding limit directly while giving FlexMap room to grow.
	input := 24 * 64 * runner.MB
	engines := []runner.Engine{
		{Kind: runner.HadoopNoSpec, SplitMB: 64},
		{Kind: runner.FlexMap},
	}
	jobs := make([]simJob, len(engines))
	for i, eng := range engines {
		eng := eng
		jobs[i] = simJob{"fig2/" + eng.String(), func() (*runner.Result, error) {
			return runOne(cfg, def, puma.Grep, input, eng)
		}}
	}
	results, err := runJobs(cfg, jobs)
	if err != nil {
		return nil, err
	}
	panel := Panel{Columns: []string{"engine", "slow-0", "slow-1", "fast", "fast share", "JCT"}}
	for i, res := range results {
		var per [3]int64
		var total int64
		for _, a := range res.MapAttempts() {
			per[a.Node] += a.Bytes
			total += a.Bytes
		}
		share := 0.0
		if total > 0 {
			share = float64(per[2]) / float64(total)
		}
		panel.Rows = append(panel.Rows, []Cell{label(engines[i].String()),
			num("%.0fMB", float64(per[0]/runner.MB)), num("%.0fMB", float64(per[1]/runner.MB)),
			num("%.0fMB", float64(per[2]/runner.MB)), num("%.0f%%", share*100), num("%.1fs", float64(res.JCT()))})
	}
	panel.Notes = []Line{{label("(ideal fast-node share = 60%; the paper's Fig. 2 shows stock stuck at ~50%)")}}
	return &Table{
		Title:  "Fig. 2 — static binding vs elastic tasks on a 1:1:3 capacity cluster",
		Panels: []Panel{panel},
	}, nil
}
