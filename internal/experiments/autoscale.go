package experiments

import (
	"fmt"

	"flexmap/internal/cluster"
	"flexmap/internal/elastic"
	"flexmap/internal/mr"
	"flexmap/internal/runner"
	"flexmap/internal/sim"
)

// The testbed: a modest heterogeneous base fleet plus a pool of fast
// spares, so joining capacity is worth re-planning for.
const (
	autoscaleBaseNodes = 10
	autoscaleSpares    = 6
)

func autoscaleCluster() (*cluster.Cluster, cluster.Interferer) {
	specs := make([]cluster.NodeSpec, autoscaleBaseNodes)
	for i := range specs {
		speed := 1.0
		if i%3 == 0 {
			speed = 1.5
		}
		specs[i] = cluster.NodeSpec{
			Name:      fmt.Sprintf("as-%02d", i),
			Class:     "base",
			BaseSpeed: speed,
			Slots:     2,
		}
	}
	return cluster.NewCluster("autoscale-10", specs), nil
}

// autoscaleSpareSpec is the rented hardware: the current fast
// generation, twice the base fleet's trailing speed.
func autoscaleSpareSpec() cluster.NodeSpec {
	return cluster.NodeSpec{Class: "spare", BaseSpeed: 2.0, Slots: 2}
}

// autoscaleFleets returns the three membership plans. The scheduled
// fleet's joins land mid-map-wave — after stock Hadoop has already sized
// and launched its first wave of splits — and the spares stay to the
// end; the autoscaled fleet decides from occupancy alone. Every time
// knob divides by cfg.Scale, like the input sizes, so the fleet dynamics
// hit the same phase of the job at any scale.
func autoscaleFleets(cfg Config) []struct {
	name string
	plan elastic.Plan
} {
	s := float64(cfg.Scale)
	var script []elastic.Event
	for i := 0; i < autoscaleSpares; i++ {
		script = append(script, elastic.Event{
			At:   sim.Time(120 / s),
			Node: cluster.NodeID(autoscaleBaseNodes + i),
			Kind: elastic.Join,
		})
	}
	notice := sim.Duration(120 / s)
	spotNotice := sim.Duration(30 / s)
	return []struct {
		name string
		plan elastic.Plan
	}{
		{"static", elastic.Plan{}},
		{"scheduled", elastic.Plan{
			Spares:     autoscaleSpares,
			SpareSpec:  autoscaleSpareSpec(),
			Script:     script,
			Notice:     notice,
			SpotNotice: spotNotice,
		}},
		{"autoscaled", elastic.Plan{
			Spares:     autoscaleSpares,
			SpareSpec:  autoscaleSpareSpec(),
			Notice:     notice,
			SpotNotice: spotNotice,
			Autoscale: &elastic.Autoscaler{
				Interval: sim.Duration(30 / s),
				Streak:   2,
				Cooldown: sim.Duration(60 / s),
			},
		}},
	}
}

// autoscaleEngines is the engine axis: stock, Late Task Binding alone
// (FlexMap's no-vertical ablation), and the full system.
func autoscaleEngines() []runner.Engine {
	return []runner.Engine{
		{Kind: runner.Hadoop, SplitMB: 64},
		{Kind: runner.FlexMap, FlexAblation: "no-vertical"},
		{Kind: runner.FlexMap},
	}
}

// Autoscale is an extension experiment (not part of the paper, so not
// part of -exp all): it crosses fleet elasticity with the map engines to
// chart cost (node-hours) against makespan. Three fleets run the same
// job: a static base fleet, a scheduled fleet where fast spare capacity
// joins mid-wave, and an autoscaled fleet where an occupancy-driven
// policy rents spares only while the job can use them. The engine axis
// is where elasticity bites: stock Hadoop's splits were sized before the
// capacity existed, while FlexMap's late task binding sizes work for the
// nodes that actually show up — Late Task Binding alone (the
// no-vertical ablation) already captures most of that.
//
// It runs the fleet × engine grid on a map-heavy job and returns the
// cost/performance frontier. A row is named "<fleet>/<engine>", fleet
// "static", "scheduled" or "autoscaled"; its JCT (makespan in seconds)
// and node-hours (machine-hours consumed) are one point of the frontier.
func Autoscale(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	// Map-heavy and long enough that the scheduled joins land mid-wave at
	// every scale the harness runs at.
	spec := mr.JobSpec{
		Name:         "autoscale",
		InputFile:    "input",
		MapCost:      1.2,
		ShuffleRatio: 0.2,
		ReduceCost:   0.2,
		NumReducers:  autoscaleBaseNodes,
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	input := 24 * runner.GB / cfg.Scale

	fleets, engines := autoscaleFleets(cfg), autoscaleEngines()
	var jobs []simJob
	for _, f := range fleets {
		for _, eng := range engines {
			f, eng := f, eng
			sc := runner.Scenario{
				Name:       "autoscale-" + f.name,
				Cluster:    autoscaleCluster,
				Seed:       cfg.Seed,
				InputSize:  input,
				Membership: f.plan,
			}
			jobs = append(jobs, simJob{sc.Name + "/" + eng.String(), func() (*runner.Result, error) {
				sc := sc
				traceInto(cfg, &sc, eng)
				return runner.Run(sc, spec, eng)
			}})
		}
	}
	results, err := runJobs(cfg, jobs)
	if err != nil {
		return nil, err
	}
	panel := Panel{
		Caption: []Line{{label(fmt.Sprintf("%d-node heterogeneous base fleet + %d fast spares (joins at t=120s on the scheduled fleet)",
			autoscaleBaseNodes, autoscaleSpares))}},
		Columns: []string{"fleet", "engine", "JCT(s)", "node-hours"},
		Notes: []Line{{label("(static: the baseline; scheduled: capacity arrives after stock already sized its splits,")},
			{label(" so late binding converts more of it into makespan; autoscaled: spares are paid for only")},
			{label(" while occupancy justifies them)")}},
	}
	for i, res := range results {
		f, eng := fleets[i/len(engines)], engines[i%len(engines)]
		panel.Rows = append(panel.Rows, []Cell{label(f.name), label(eng.String()),
			num("%.1f", float64(res.JCT())), num("%.2f", res.NodeHours)})
	}
	return &Table{
		Title:  "Autoscale (extension) — fleet elasticity × engine, cost vs makespan frontier",
		Panels: []Panel{panel},
	}, nil
}
