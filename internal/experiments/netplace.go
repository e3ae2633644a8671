package experiments

import (
	"fmt"
	"strings"

	"flexmap/internal/cluster"
	"flexmap/internal/metrics"
	"flexmap/internal/mr"
	"flexmap/internal/runner"
)

// NetPlace is an extension experiment (not part of the paper, so not part
// of -exp all): it crosses the network fabric's oversubscription ratio
// with FlexMap's reduce placement policy. The paper's placement biases
// reducers toward fast nodes — the right call on an uncontended network.
// On a rack-structured cluster whose fast machines are concentrated in a
// few racks, that bias funnels nearly the whole shuffle through those
// racks' downlinks; a greedy traffic-aware placer spreads the load. The
// grid shows where each policy wins as the core gets scarcer.
type NetPlaceResult struct {
	Rows []NetPlaceRow
}

// NetPlaceRow is one fabric × placement cell.
type NetPlaceRow struct {
	Fabric    string // "flat", "1:1", "4:1", "8:1"
	Placement string // "biased" (paper default) or "greedy"
	JCT       float64
	// ShuffleSpan is the post-map tail (reduce shuffle + compute): the
	// window where placement-induced network contention shows up.
	ShuffleSpan float64
	CrossRackGB float64
}

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

// NetPlace runs the oversubscription × placement grid on a shuffle-heavy
// job (shuffle ratio 1: every input byte crosses the network again).
func NetPlace(cfg Config) (*NetPlaceResult, error) {
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
	var labels []NetPlaceRow
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
			labels = append(labels, NetPlaceRow{Fabric: f.name, Placement: p.name})
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
	out := &NetPlaceResult{}
	for i, res := range results {
		row := labels[i]
		row.JCT = float64(res.JCT())
		row.ShuffleSpan = float64(res.Finished - res.MapPhaseEnd)
		row.CrossRackGB = float64(res.CrossRackBytes) / float64(runner.GB)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Row returns the cell for a fabric × placement pair (nil if absent).
func (r *NetPlaceResult) Row(fabric, placement string) *NetPlaceRow {
	for i := range r.Rows {
		if r.Rows[i].Fabric == fabric && r.Rows[i].Placement == placement {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render prints the grid.
func (r *NetPlaceResult) Render() string {
	var b strings.Builder
	b.WriteString("NetPlace (extension) — reduce placement × core oversubscription, shuffle-heavy job\n")
	b.WriteString("8 racks × 6 hosts, machine generations concentrated per rack (2.8→1.0)\n")
	var rows [][]string
	for _, row := range r.Rows {
		cross := "-"
		if row.Fabric != "flat" {
			cross = fmt.Sprintf("%.2f", row.CrossRackGB)
		}
		rows = append(rows, []string{
			row.Fabric,
			row.Placement,
			fmt.Sprintf("%.1f", row.JCT),
			fmt.Sprintf("%.1f", row.ShuffleSpan),
			cross,
		})
	}
	b.WriteString(metrics.Table([]string{"fabric", "placement", "JCT(s)", "shuffle(s)", "x-rack(GB)"}, rows))
	b.WriteString("(flat/1:1: compute bias wins an uncontended network; oversubscribed: traffic-aware placement pays)\n")
	return b.String()
}
