package experiments

import (
	"fmt"

	"flexmap/internal/cluster"
	"flexmap/internal/metrics"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

// Skew compares the engines under *computational data skew* on a
// homogeneous cluster: every node is identical, but some block units cost
// several times more to process. It runs wordcount on a 12-node
// homogeneous cluster with lognormal per-BU cost weights (mean 1, sigma
// 0.8 ⇒ hot blocks up to ~5× average) and tabulates JCT and JCT
// normalized to hadoop-64m per engine.
//
// This is an extension experiment: the paper positions SkewTune as the
// skew-mitigation rival and FlexMap as the heterogeneity fix, arguing
// they address different problems. Here both phenomena are isolated —
// skew with no node heterogeneity — so SkewTune should shine and
// FlexMap should neither help much nor hurt.
func Skew(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	const sigma = 0.8
	p, err := puma.GetProfile(puma.WordCount)
	if err != nil {
		return nil, err
	}
	factory := func() (*cluster.Cluster, cluster.Interferer) {
		return cluster.HomogeneousPaper(12), nil
	}
	c, _ := factory()
	spec, err := specFor(puma.WordCount, c.Size())
	if err != nil {
		return nil, err
	}
	sc := runner.Scenario{
		Name:      "skew",
		Cluster:   factory,
		Seed:      cfg.Seed,
		InputSize: smallInput(p, cfg.Scale),
		SkewSigma: sigma,
	}

	engines := fig8Engines()
	jobs := make([]simJob, len(engines))
	for i, eng := range engines {
		eng := eng
		jobs[i] = simJob{"skew/" + eng.String(), func() (*runner.Result, error) {
			sc := sc
			traceInto(cfg, &sc, eng)
			return runner.Run(sc, spec, eng)
		}}
	}
	results, err := runJobs(cfg, jobs)
	if err != nil {
		return nil, err
	}
	sums := make([]metrics.Summary, len(results))
	for i, res := range results {
		sums[i] = metrics.Summarize(res.JobResult)
	}
	norm, err := metrics.NormalizeTo(Baseline64, sums)
	if err != nil {
		return nil, err
	}
	panel := Panel{
		Columns: []string{"engine", "JCT(s)", "norm"},
		Notes:   []Line{{label("(skew without heterogeneity: SkewTune's home turf; FlexMap targets a different problem)")}},
	}
	for _, sum := range sums {
		panel.Rows = append(panel.Rows, []Cell{label(sum.Engine), num("%.1f", sum.JCT), num("%.2f", norm[sum.Engine])})
	}
	return &Table{
		Title:  fmt.Sprintf("Skew (extension) — computational data skew on a homogeneous cluster (σ=%.1f)", sigma),
		Panels: []Panel{panel},
	}, nil
}
