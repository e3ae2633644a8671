package experiments

import (
	"fmt"

	"flexmap/internal/cluster"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

// AblationVariants lists the FlexMap mechanisms that can be disabled, in
// rendering order ("" = the full system).
var AblationVariants = []string{"", "no-vertical", "no-horizontal", "no-bias", "no-spec"}

// ablationScenario is one cluster/reducer configuration of the study.
type ablationScenario struct {
	name     string
	factory  runner.ClusterFactory
	reducers func(c *cluster.Cluster) int
}

// Ablation quantifies how much each FlexMap design choice contributes,
// under two conditions chosen to expose different mechanisms:
//
//   - "mt20-fine": 20% slow nodes, one reducer per slot. Long map phase —
//     vertical/horizontal sizing dominate.
//   - "mt5-coarse": 5% slow nodes, one reducer per node (coarse 640 MB
//     partitions). A single reducer landing on a slow node gates the
//     job — the conditions where reduce placement and speculation matter.
//
// This extends the paper: §III motivates each mechanism qualitatively;
// the ablation measures them. It also exposes a genuine weakness of
// Algorithm 1 the paper does not discuss: horizontal scaling normalizes
// to the *slowest* node, so a single pathological straggler (speed 0.33
// in mt5-coarse) inflates every healthy node's task size by 3x — past
// the efficiency optimum and into long-tail territory. Disabling
// horizontal scaling is a significant *win* in that regime.
//
// Each scenario is a panel; its "vs full" column is the JCT increase over
// full FlexMap when the mechanism is disabled (positive = it helps).
func Ablation(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	scenarios := []ablationScenario{
		{
			name: "mt20-fine",
			factory: func() (*cluster.Cluster, cluster.Interferer) {
				return cluster.MultiTenant40(0.20, cfg.Seed)
			},
			reducers: func(c *cluster.Cluster) int { return c.TotalSlots() },
		},
		{
			name: "mt5-coarse",
			factory: func() (*cluster.Cluster, cluster.Interferer) {
				return cluster.MultiTenant40(0.05, cfg.Seed)
			},
			reducers: func(c *cluster.Cluster) int { return c.Size() },
		},
	}
	p, err := puma.GetProfile(puma.WordCount)
	if err != nil {
		return nil, err
	}
	input := largeInput(p, cfg.Scale)

	var jobs []simJob
	for _, scen := range scenarios {
		def := clusterDef{name: scen.name, factory: scen.factory}
		c, _ := scen.factory()
		reducers := scen.reducers(c)
		for _, variant := range AblationVariants {
			variant := variant
			jobs = append(jobs, simJob{fmt.Sprintf("ablation/%s/flexmap[%s]", scen.name, variant), func() (*runner.Result, error) {
				return runWith(cfg, def, puma.WordCount, input,
					runner.Engine{Kind: runner.FlexMap, FlexAblation: variant}, reducers)
			}})
		}
		jobs = append(jobs, simJob{fmt.Sprintf("ablation/%s/hadoop-64m", scen.name), func() (*runner.Result, error) {
			return runWith(cfg, def, puma.WordCount, input,
				runner.Engine{Kind: runner.Hadoop, SplitMB: 64}, reducers)
		}})
	}
	results, err := runJobs(cfg, jobs)
	if err != nil {
		return nil, err
	}
	out := &Table{
		Title:   "Ablation — FlexMap design choices (wordcount, 40-node multi-tenant cluster)",
		Caption: []Line{{}},
		Notes: []Line{{}, {label("(positive 'vs full' = disabling the mechanism slows the job down.")},
			{label(" mt20-fine exposes the sizing mechanisms; mt5-coarse shows horizontal")},
			{label(" scaling BACKFIRING when one extreme outlier inflates every node's")},
			{label(" relative speed — a limitation of Algorithm 1 the paper does not discuss)")}},
	}
	perScenario := len(AblationVariants) + 1
	for si, scen := range scenarios {
		panel := Panel{Name: scen.name, Caption: []Line{{label("[" + scen.name + "]")}},
			Columns: []string{"variant", "JCT(s)", "vs full"}}
		full := float64(results[si*perScenario].JCT())
		for vi, variant := range AblationVariants {
			jct := float64(results[si*perScenario+vi].JCT())
			name, loss := "flexmap (full)", label("-")
			if variant != "" {
				name, loss = "flexmap["+variant+"]", num("%+.1f%%", (jct-full)/full*100)
			}
			panel.Rows = append(panel.Rows, []Cell{label(name), num("%.1f", jct), loss})
		}
		panel.Rows = append(panel.Rows, []Cell{label("hadoop-64m"),
			num("%.1f", float64(results[si*perScenario+len(AblationVariants)].JCT())), label("-")})
		out.Panels = append(out.Panels, panel)
	}
	return out, nil
}
