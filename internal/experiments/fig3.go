package experiments

import (
	"fmt"
	"strings"

	"flexmap/internal/cluster"
	"flexmap/internal/metrics"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

// fig3Sizes are the split sizes swept (in MB).
var fig3Sizes = []int{8, 16, 32, 64, 128, 256}

// Fig3 runs the task-size implications study: (a) the PDF of normalized
// map runtimes at 8 MB vs 64 MB on the virtual cluster, with their
// standard deviations; (b,c) JCT and productivity (mean Eq. 1 over map
// attempts) vs split size on a homogeneous 6-node cluster; (d) JCT and
// efficiency (Eq. 2) vs split size on the heterogeneous 6-node cluster.
func Fig3(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	p, err := puma.GetProfile(puma.WordCount)
	if err != nil {
		return nil, err
	}
	input := smallInput(p, cfg.Scale)

	// The full grid: (a)'s two virtual-cluster runs, then (b,c)/(d)'s
	// split-size sweep over the homogeneous and heterogeneous clusters.
	homoDef := clusterDef{"homogeneous-6", func() (*cluster.Cluster, cluster.Interferer) {
		return cluster.HomogeneousPaper(6), nil
	}}
	hetDef := clusterDef{"heterogeneous-6", func() (*cluster.Cluster, cluster.Interferer) {
		return cluster.Heterogeneous6(), nil
	}}
	var jobs []simJob
	for _, sizeMB := range []int{8, 64} {
		sizeMB := sizeMB
		jobs = append(jobs, simJob{fmt.Sprintf("fig3a/%dMB", sizeMB), func() (*runner.Result, error) {
			return runOne(cfg, virtualDef(cfg.Seed), puma.WordCount, input,
				runner.Engine{Kind: runner.HadoopNoSpec, SplitMB: sizeMB})
		}})
	}
	sweepDefs := []clusterDef{homoDef, hetDef}
	for _, sizeMB := range fig3Sizes {
		for _, def := range sweepDefs {
			sizeMB, def := sizeMB, def
			jobs = append(jobs, simJob{fmt.Sprintf("fig3bcd/%s/%dMB", def.name, sizeMB), func() (*runner.Result, error) {
				return runOne(cfg, def, puma.WordCount, input,
					runner.Engine{Kind: runner.HadoopNoSpec, SplitMB: sizeMB})
			}})
		}
	}
	results, err := runJobs(cfg, jobs)
	if err != nil {
		return nil, err
	}

	// (a) PDFs on the virtual cluster.
	a := Panel{Name: "a"}
	for i, size := range []string{"8MB ", "64MB"} {
		normed := metrics.Normalize(metrics.MapRuntimes(results[i].JobResult))
		hist := metrics.NewHistogram(normed, 0, 1, 10)
		a.Caption = append(a.Caption, Line{label("  " + size + " (stddev "),
			named(strings.TrimSpace(size)+" stddev", "%.3f", metrics.Describe(normed).StdDev),
			label("): " + metrics.Sparkline(hist.PDF()))})
	}
	a.Caption = append(a.Caption, Line{label("(paper: 8MB runtimes cluster tightly; 64MB shows heavy tails)")})

	// (b,c) homogeneous sweep; (d) heterogeneous sweep.
	sweeps := []Panel{
		{Name: "b,c", Caption: []Line{{label("Fig. 3(b,c) — task size vs JCT and productivity, homogeneous 6-node")}},
			Columns: []string{"split", "JCT(s)", "productivity"}},
		{Name: "d", Caption: []Line{{label("Fig. 3(d) — task size vs JCT and efficiency, heterogeneous 6-node")}},
			Columns: []string{"split", "JCT(s)", "productivity", "efficiency"}},
	}
	for i, res := range results[2:] {
		sum := metrics.Summarize(res.JobResult)
		sw := &sweeps[i%len(sweepDefs)]
		row := []Cell{label(fmt.Sprintf("%dMB", fig3Sizes[i/len(sweepDefs)])),
			num("%.1f", sum.JCT), num("%.2f", sum.MeanProductivity), num("%.2f", sum.Efficiency)}
		sw.Rows = append(sw.Rows, row[:len(sw.Columns)])
	}
	return &Table{
		Title:  "Fig. 3(a) — PDF of normalized map runtime, virtual cluster",
		Panels: append([]Panel{a}, sweeps...),
		Notes:  []Line{{}},
	}, nil
}
