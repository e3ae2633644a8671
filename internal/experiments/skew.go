package experiments

import (
	"fmt"
	"strings"

	"flexmap/internal/cluster"
	"flexmap/internal/metrics"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

// SkewResult compares the engines under *computational data skew* on a
// homogeneous cluster: every node is identical, but some block units cost
// several times more to process (lognormal weights, mean 1).
//
// This is an extension experiment: the paper positions SkewTune as the
// skew-mitigation rival and FlexMap as the heterogeneity fix, arguing
// they address different problems. Here both phenomena are isolated —
// skew with no node heterogeneity — so SkewTune should shine and
// FlexMap should neither help much nor hurt.
type SkewResult struct {
	Sigma float64
	// JCT and Norm (vs hadoop-64m) per engine name.
	JCT  map[string]float64
	Norm map[string]float64
}

// Skew runs wordcount on a 12-node homogeneous cluster with lognormal
// per-BU cost weights (sigma 0.8 ⇒ hot blocks up to ~5× average).
func Skew(cfg Config) (*SkewResult, error) {
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

	out := &SkewResult{Sigma: sigma, JCT: map[string]float64{}, Norm: map[string]float64{}}
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
	var sums []metrics.Summary
	for _, res := range results {
		sum := metrics.Summarize(res.JobResult)
		sums = append(sums, sum)
		out.JCT[sum.Engine] = sum.JCT
	}
	norm, err := metrics.NormalizeTo(Baseline64, sums)
	if err != nil {
		return nil, err
	}
	out.Norm = norm
	return out, nil
}

// Render prints the comparison.
func (r *SkewResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Skew (extension) — computational data skew on a homogeneous cluster (σ=%.1f)\n", r.Sigma)
	var rows [][]string
	for _, eng := range []string{"hadoop-64m", "hadoop-nospec-64m", "skewtune-64m", "flexmap"} {
		rows = append(rows, []string{
			eng,
			fmt.Sprintf("%.1f", r.JCT[eng]),
			fmt.Sprintf("%.2f", r.Norm[eng]),
		})
	}
	b.WriteString(metrics.Table([]string{"engine", "JCT(s)", "norm"}, rows))
	b.WriteString("(skew without heterogeneity: SkewTune's home turf; FlexMap targets a different problem)\n")
	return b.String()
}
