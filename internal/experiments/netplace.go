package experiments

import (
	"fmt"

	"flexmap/internal/cluster"
	"flexmap/internal/mr"
	"flexmap/internal/runner"
)

// netPlaceRacks×netPlaceHosts is the testbed: generations concentrated
// rack-by-rack (the worst case for compute-biased placement), fastest
// first so the bias has somewhere to pile onto.
const (
	netPlaceRacks = 8
	netPlaceHosts = 6
)

var netPlaceRackSpeeds = []float64{2.8, 2.8, 2.4, 2.4, 1.5, 1.5, 1.0, 1.0}

func netPlaceCluster(oversub float64) runner.ClusterFactory {
	return func() (*cluster.Cluster, cluster.Interferer) {
		specs := make([]cluster.NodeSpec, netPlaceRacks*netPlaceHosts)
		for i := range specs {
			specs[i] = cluster.NodeSpec{
				Name:      fmt.Sprintf("np-%02d", i),
				Class:     "rackgen",
				BaseSpeed: netPlaceRackSpeeds[i/netPlaceHosts],
				Slots:     2,
			}
		}
		c := cluster.NewCluster("netplace-48", specs)
		if oversub > 0 {
			c.Topology = &cluster.TopologySpec{HostsPerRack: netPlaceHosts, Oversub: oversub}
		}
		return c, nil
	}
}

// NetPlace is an extension experiment (not part of the paper, so not part
// of -exp all): it crosses the network fabric's oversubscription ratio
// with FlexMap's reduce placement policy. The paper's placement biases
// reducers toward fast nodes — the right call on an uncontended network.
// On a rack-structured cluster whose fast machines are concentrated in a
// few racks, that bias funnels nearly the whole shuffle through those
// racks' downlinks; a greedy traffic-aware placer spreads the load. The
// grid shows where each policy wins as the core gets scarcer.
//
// It runs the oversubscription × placement grid on a shuffle-heavy job
// (shuffle ratio 1: every input byte crosses the network again). A row is
// named "<fabric>/<placement>": fabric "flat", "1:1", "4:1" or "8:1",
// placement "biased" (the paper's) or "greedy". Its shuffle column is the
// post-map tail (reduce shuffle + compute), the window where
// placement-induced network contention shows up.
func NetPlace(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	// A quarter as many reducers as nodes, so placement has real freedom
	// (with one reducer per node every policy degenerates to
	// "everywhere"). Shuffle-heavy, reduce-light: every input byte
	// crosses the network again but merge+reduce is cheap, so the
	// post-map tail is dominated by shuffle transfer time — the quantity
	// placement controls.
	spec := mr.JobSpec{
		Name:         "netplace",
		InputFile:    "input",
		MapCost:      1.0,
		ShuffleRatio: 1.0,
		ReduceCost:   0.01,
		NumReducers:  netPlaceRacks * netPlaceHosts / 4,
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	input := 48 * runner.GB / cfg.Scale

	fabrics := []struct {
		name    string
		oversub float64
	}{
		{"flat", 0},
		{"1:1", 1},
		{"4:1", 4},
		{"8:1", 8},
	}
	placements := []struct {
		name   string
		policy string
	}{
		{"biased", ""},
		{"greedy", "greedy"},
	}

	var jobs []simJob
	for _, f := range fabrics {
		for _, p := range placements {
			f, p := f, p
			eng := runner.Engine{Kind: runner.FlexMap, ReducePlacement: p.policy}
			sc := runner.Scenario{
				Name:      "netplace-" + f.name,
				Cluster:   netPlaceCluster(f.oversub),
				Seed:      cfg.Seed,
				InputSize: input,
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
		Caption: []Line{{label("8 racks × 6 hosts, machine generations concentrated per rack (2.8→1.0)")}},
		Columns: []string{"fabric", "placement", "JCT(s)", "shuffle(s)", "x-rack(GB)"},
		Notes:   []Line{{label("(flat/1:1: compute bias wins an uncontended network; oversubscribed: traffic-aware placement pays)")}},
	}
	for i, res := range results {
		f, p := fabrics[i/len(placements)], placements[i%len(placements)]
		cross := num("%.2f", float64(res.CrossRackBytes)/float64(runner.GB))
		if f.name == "flat" {
			cross.Text = "-"
		}
		panel.Rows = append(panel.Rows, []Cell{label(f.name), label(p.name), num("%.1f", float64(res.JCT())),
			num("%.1f", float64(res.Finished-res.MapPhaseEnd)), cross})
	}
	return &Table{
		Title:  "NetPlace (extension) — reduce placement × core oversubscription, shuffle-heavy job",
		Panels: []Panel{panel},
	}, nil
}
