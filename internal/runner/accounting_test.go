package runner

import (
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/elastic"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
)

// The figures print node-hours with two decimals, so these tests compare
// the accounting bit for bit (==, no epsilon) against the formula each
// run must bill.

// TestStaticRunBillsWholeFleet: a static run bills every node for the
// whole makespan.
func TestStaticRunBillsWholeFleet(t *testing.T) {
	res, err := Run(smallScenario(hetFactory), wcSpec(t, 4), Engine{Kind: FlexMap})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(res.Cluster.Size()) * float64(res.Finished) / 3600; res.NodeHours != want {
		t.Fatalf("NodeHours = %v, want %v", res.NodeHours, want)
	}
}

// TestStaticWorkloadUtilization: a static workload's utilization divides
// the attempts' busy time by span × the fleet's slots.
func TestStaticWorkloadUtilization(t *testing.T) {
	res, err := RunWorkload(testWorkload(7, 12))
	if err != nil {
		t.Fatal(err)
	}
	span := float64(res.Span)
	if want := float64(res.Cluster.Size()) * span / 3600; res.NodeHours != want {
		t.Fatalf("NodeHours = %v, want %v", res.NodeHours, want)
	}
	if want := float64(workloadBusy(res)) / (span * float64(res.Cluster.TotalSlots())); res.Utilization != want {
		t.Fatalf("Utilization = %v, want %v", res.Utilization, want)
	}
}

// TestElasticRunBillsJoinedIntervals: an elastic run bills the base
// fleet for the whole span and each spare for the joined intervals its
// node-join and node-release events bound, in a single job and in a
// workload.
func TestElasticRunBillsJoinedIntervals(t *testing.T) {
	sc := Scenario{Name: "bill", Cluster: equivCluster(50), Seed: 42, InputSize: 50 * 2 * dfs.BUSize}
	sc.Membership = equivMembership()
	sc.Trace.Collect = true
	spec, err := specForEquiv(50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, spec, Engine{Kind: FlexMap})
	if err != nil {
		t.Fatal(err)
	}
	hours, _ := billFromTrace(t, res.Cluster, sc.Membership.Spares, res.Trace, res.Finished)
	if res.NodeHours != hours {
		t.Fatalf("Run: NodeHours = %v, want %v", res.NodeHours, hours)
	}

	wl := testWorkload(7, 12)
	wl.Membership = elastic.Plan{Spares: 2, Notice: 30, Script: []elastic.Event{
		{At: 60, Node: 8, Kind: elastic.Join},
		{At: 120, Node: 9, Kind: elastic.Join},
		{At: 300, Node: 8, Kind: elastic.Drain},
	}}
	wl.Trace.Collect = true
	wres, err := RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	hours, slotSecs := billFromTrace(t, wres.Cluster, wl.Membership.Spares, wres.Trace, sim.Time(wres.Span))
	if wres.NodeHours != hours {
		t.Fatalf("RunWorkload: NodeHours = %v, want %v", wres.NodeHours, hours)
	}
	if want := float64(workloadBusy(wres)) / slotSecs; wres.Utilization != want {
		t.Fatalf("RunWorkload: Utilization = %v, want %v", wres.Utilization, want)
	}
}

// workloadBusy sums the busy time of every attempt of every job.
func workloadBusy(res *WorkloadResult) sim.Duration {
	var busy sim.Duration
	for _, j := range res.Jobs {
		for _, at := range j.Result.Attempts {
			busy += sim.Duration(at.End - at.Start)
		}
	}
	return busy
}

// billFromTrace returns the node-hours and slot-seconds through until of
// a cluster whose last spares nodes are spares, with each spare's joined
// intervals read from the trace: base nodes first, then the spares in
// NodeID order, each its completed intervals and then any open one. It
// fails unless some spare completed an interval.
func billFromTrace(t *testing.T, c *cluster.Cluster, spares int, tr *trace.Tracer, until sim.Time) (hours, slotSecs float64) {
	t.Helper()
	base := c.Size() - spares
	joinedAt := make([]sim.Time, spares)
	joined := make([]bool, spares)
	secs := make([]float64, spares)
	releases := 0
	for _, e := range tr.Events() {
		i := int(e.Node) - base
		switch e.Kind {
		case trace.KindNodeJoin:
			joinedAt[i], joined[i] = e.At, true
		case trace.KindNodeRelease:
			secs[i] += float64(e.At - joinedAt[i])
			joined[i] = false
			releases++
		}
	}
	if releases == 0 {
		t.Fatal("no spare completed a joined interval; the case no longer covers one")
	}
	baseSlots := 0
	for _, n := range c.Nodes[:base] {
		baseSlots += n.Slots
	}
	nodeSecs := float64(base) * float64(until)
	slotSecs = float64(baseSlots) * float64(until)
	for i := range secs {
		slots := float64(c.Nodes[base+i].Slots)
		nodeSecs += secs[i]
		slotSecs += secs[i] * slots
		if joined[i] {
			nodeSecs += float64(until - joinedAt[i])
			slotSecs += float64(until-joinedAt[i]) * slots
		}
	}
	return nodeSecs / 3600, slotSecs
}
