package experiments

import (
	"fmt"

	"flexmap/internal/cluster"
	"flexmap/internal/metrics"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

// Fig7 reproduces Fig. 7: it runs histogram-ratings under FlexMap on the
// physical and virtual clusters and tabulates how FlexMap grows task
// sizes and productivity on the fastest vs slowest node across map-phase
// progress, one panel per cluster.
func Fig7(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	p, err := puma.GetProfile(puma.HistogramRatings)
	if err != nil {
		return nil, err
	}
	input := smallInput(p, cfg.Scale)

	defs := []clusterDef{physicalDef(), virtualDef(cfg.Seed)}
	jobs := make([]simJob, len(defs))
	for i, def := range defs {
		def := def
		jobs[i] = simJob{"fig7/" + def.name, func() (*runner.Result, error) {
			return runOne(cfg, def, puma.HistogramRatings, input, runner.Engine{Kind: runner.FlexMap})
		}}
	}
	results, err := runJobs(cfg, jobs)
	if err != nil {
		return nil, err
	}
	out := &Table{
		Title:   "Fig. 7 — FlexMap task size and productivity vs map-phase progress (histogram-ratings)",
		Caption: []Line{{}},
		Notes:   []Line{{}, {label("(paper: physical peaked at 32 BUs fast / 8 BUs slow; virtual at 64 / 2)")}},
	}
	for i, def := range defs {
		res := results[i]
		fast, slow := extremeNodes(res.Cluster)
		fastBuckets, fastPeak := traceFor(res, fast)
		slowBuckets, slowPeak := traceFor(res, slow)
		panel := Panel{
			Name: def.name,
			Caption: []Line{{label("[" + def.name + " cluster] fast node "), named("fast node", "%.0f", float64(fast)),
				label(" (speed "), named("fast speed", "%.1fx", res.Cluster.Node(fast).Speed()),
				label("), slow node "), named("slow node", "%.0f", float64(slow)),
				label(" (speed "), named("slow speed", "%.1fx", res.Cluster.Node(slow).Speed()), label(")")}},
			Columns: []string{"progress", "fast BUs", "fast prod", "slow BUs", "slow prod"},
			Notes: []Line{{label("peak task size: fast "), named("fast peak BUs", "%.0f", float64(fastPeak)),
				label(" BUs ("), named("fast peak MB", "%.0f", float64(fastPeak*8)),
				label(" MB), slow "), named("slow peak BUs", "%.0f", float64(slowPeak)),
				label(" BUs ("), named("slow peak MB", "%.0f", float64(slowPeak*8)), label(" MB)")}},
		}
		for j, fb := range fastBuckets {
			sb := slowBuckets[j]
			panel.Rows = append(panel.Rows, []Cell{label(fmt.Sprintf("%.0f%%", fb.Progress*100)),
				bucketCell(fb.Count, fb.MeanBUs, "%.1f"), bucketCell(fb.Count, fb.MeanProd, "%.2f"),
				bucketCell(sb.Count, sb.MeanBUs, "%.1f"), bucketCell(sb.Count, sb.MeanProd, "%.2f")})
		}
		out.Panels = append(out.Panels, panel)
	}
	return out, nil
}

// bucketCell prints "-" over a progress bucket with no attempts.
func bucketCell(count int, v float64, format string) Cell {
	c := num(format, v)
	if count == 0 {
		c.Text = "-"
	}
	return c
}

// extremeNodes identifies the fastest and slowest worker by final
// effective speed (the paper used a performance probe).
func extremeNodes(c *cluster.Cluster) (fast, slow cluster.NodeID) {
	fastV, slowV := -1.0, -1.0
	for _, n := range c.Nodes {
		s := n.Speed()
		if fastV < 0 || s > fastV {
			fastV, fast = s, n.ID
		}
		if slowV < 0 || s < slowV {
			slowV, slow = s, n.ID
		}
	}
	return fast, slow
}

// traceFor buckets a node's task sizes and productivity over map-phase
// progress from the run's attempt records, and returns the largest task
// it ran.
func traceFor(res *runner.Result, node cluster.NodeID) (buckets []metrics.TraceBucket, peakBUs int) {
	phase := float64(res.MapPhaseRuntime())
	if phase <= 0 {
		return nil, 0
	}
	var progress, bus, prod []float64
	for _, a := range res.MapAttempts() {
		if a.Node != node {
			continue
		}
		progress = append(progress, (float64(a.Start)-float64(res.MapPhaseStart))/phase)
		bus = append(bus, float64(a.BUs))
		prod = append(prod, a.Productivity())
		peakBUs = max(peakBUs, a.BUs)
	}
	return metrics.BucketTrace(progress, bus, prod, 10), peakBUs
}
