package core

import (
	"fmt"
	"math"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/elastic"
	"flexmap/internal/engine"
	"flexmap/internal/faults"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/speculate"
	"flexmap/internal/trace"
	"flexmap/internal/yarn"
)

// refRelativeSpeeds is the map-keyed table of relative speeds that the
// NodeID-indexed slice, and then the per-node RelativeSpeed, replaced,
// recomputed from the windows with no memo.
func refRelativeSpeeds(m *SpeedMonitor) map[cluster.NodeID]float64 {
	nodes := m.driver.Cluster.Nodes
	sp := make([]float64, len(nodes))
	for i, n := range nodes {
		sp[i] = m.GetSpeed(n.ID)
	}
	slowest := 0.0
	for _, s := range sp {
		if s > 0 && (slowest == 0 || s < slowest) {
			slowest = s
		}
	}
	out := make(map[cluster.NodeID]float64, len(nodes))
	for i, n := range nodes {
		if sp[i] <= 0 || slowest <= 0 {
			out[n.ID] = 1.0
			continue
		}
		out[n.ID] = sp[i] / slowest
	}
	return out
}

// refNormalizedCapacities is the map-keyed table of capacities that
// Capacity replaced.
func refNormalizedCapacities(m *SpeedMonitor) map[cluster.NodeID]float64 {
	nodes := m.driver.Cluster.Nodes
	sp := make([]float64, len(nodes))
	fastest := 0.0
	for i, n := range nodes {
		sp[i] = m.GetSpeed(n.ID)
		if sp[i] > fastest {
			fastest = sp[i]
		}
	}
	out := make(map[cluster.NodeID]float64, len(nodes))
	for i, n := range nodes {
		if sp[i] <= 0 || fastest <= 0 {
			out[n.ID] = 1.0
			continue
		}
		out[n.ID] = sp[i] / fastest
	}
	return out
}

// refFairShare is fairShare over a map-keyed speed table, recomputed
// with no epoch memo.
func refFairShare(am *AM, rel float64, rels map[cluster.NodeID]float64) int {
	var totalRel float64
	oneWave := 0
	for _, n := range am.d.Cluster.Nodes {
		if n.Offline() {
			continue
		}
		totalRel += rels[n.ID] * float64(n.Slots)
		oneWave += n.Slots * am.sizer.TaskSize(int(n.ID), rels[n.ID])
	}
	remaining := am.tracker.Remaining()
	if totalRel <= 0 || remaining >= oneWave {
		return remaining
	}
	share := int(float64(remaining)*rel/totalRel) + 1
	if share < 4 {
		share = 4
	}
	if share > remaining {
		share = remaining
	}
	return share
}

// speedProbe stands between the RM and a FlexMap AM. Before each offer
// reaches the AM it checks the speed tables, AM.RelativeSpeed and the
// endgame share against the map-keyed references, bit for bit.
type speedProbe struct {
	t  *testing.T
	am *AM

	offers      int
	clamped     int // offers whose fair share clamped the task size
	spareOffers int // offers on spare nodes
	spares      map[cluster.NodeID]bool
}

func (p *speedProbe) OnSlotFree(n *cluster.Node) bool {
	p.check(n)
	return p.am.OnSlotFree(n)
}

func (p *speedProbe) Bound(dst []cluster.NodeID) ([]cluster.NodeID, bool) {
	return p.am.Bound(dst)
}

func (p *speedProbe) check(node *cluster.Node) {
	p.offers++
	if p.spares[node.ID] {
		p.spareOffers++
	}
	am, nodes := p.am, p.am.d.Cluster.Nodes
	now := am.d.Eng.Now()
	refRels, refCaps := refRelativeSpeeds(am.monitor), refNormalizedCapacities(am.monitor)
	for _, n := range nodes {
		if got := am.monitor.RelativeSpeed(n.ID); math.Float64bits(got) != math.Float64bits(refRels[n.ID]) {
			p.t.Fatalf("t=%v: monitor RelativeSpeed(%d) = %v, reference %v", now, n.ID, got, refRels[n.ID])
		}
		if got := am.RelativeSpeed(n.ID); math.Float64bits(got) != math.Float64bits(refRels[n.ID]) {
			p.t.Fatalf("t=%v: RelativeSpeed(%d) = %v, reference %v", now, n.ID, got, refRels[n.ID])
		}
		if got := am.monitor.Capacity(n.ID); math.Float64bits(got) != math.Float64bits(refCaps[n.ID]) {
			p.t.Fatalf("t=%v: Capacity(%d) = %v, reference %v", now, n.ID, got, refCaps[n.ID])
		}
	}
	if am.d.Finished() || am.d.MapsFinished() || am.tracker.Remaining() == 0 {
		return
	}
	rel, refRel := am.monitor.RelativeSpeed(node.ID), refRels[node.ID]
	if am.NoHorizontal {
		rel, refRel = 1, 1
	}
	got, want := am.fairShare(node, rel), refFairShare(am, refRel, refRels)
	if got != want {
		p.t.Fatalf("t=%v: fairShare(node %d) = %d, reference %d", now, node.ID, got, want)
	}
	if want < am.tracker.Remaining() {
		p.clamped++
	}
}

// TestSpeedTablesMatchReference runs FlexMap jobs through node crashes
// with rejoin (ResetNode), elastic spares that join and drain, and the
// NoHorizontal ablation, and at every offer requires the NodeID-indexed
// speed tables and fairShare to equal the map-keyed originals. It also
// pins AM.RelativeSpeed, the autoscaler's scale-in signal, for every
// NodeID, offline spares included.
func TestSpeedTablesMatchReference(t *testing.T) {
	type cell struct {
		name         string
		crashes      bool
		spares       bool
		noHorizontal bool
	}
	for _, c := range []cell{
		{name: "crash-rejoin", crashes: true},
		{name: "elastic", spares: true},
		{name: "crash-elastic-no-horizontal", crashes: true, spares: true, noHorizontal: true},
	} {
		for _, seed := range []int64{3, 11} {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				clus := cluster.Heterogeneous6()
				var spares []cluster.NodeID
				if c.spares {
					spares = clus.AddSpares(2, cluster.NodeSpec{BaseSpeed: 1.5, Slots: 2})
				}
				eng := sim.New()
				spec := flexSpec(6)
				store := dfs.NewStore(clus, 3, randutil.New(seed))
				if _, err := store.AddFile(spec.InputFile, 1024*dfs.BUSize); err != nil {
					t.Fatal(err)
				}
				rm := yarn.NewRM(eng, clus)
				d, err := engine.NewDriver(engine.NewExecutor(eng, clus, engine.BaseIPS), store, rm, spec)
				if err != nil {
					t.Fatal(err)
				}
				d.Noise = randutil.New(seed + 1)
				d.NoiseSigma = 0.1
				am, err := NewAM(d, randutil.New(seed+2))
				if err != nil {
					t.Fatal(err)
				}
				am.Speculation = speculate.NewLATE()
				am.NoHorizontal = c.noHorizontal
				probe := &speedProbe{t: t, am: am, spares: map[cluster.NodeID]bool{}}
				for _, id := range spares {
					probe.spares[id] = true
				}
				rm.SetScheduler(probe)

				rejoins := 0
				d.OnNodeRejoin(func(cluster.NodeID) { rejoins++ })
				w := yarn.NewNodeWatcher(eng, clus, rm)
				d.OnFinished(eng.Stop)
				target := engine.NewFaultTarget(clus)
				target.Add(d)
				target.AttachWatcher(w)
				if c.crashes {
					inj := faults.NewInjector(eng, clus, []faults.Event{
						{At: 20, Node: 0, Duration: 30},
						{At: 35, Node: 3, Duration: 25},
					}, target)
					inj.Start()
				}
				var ctl *elastic.Controller
				if c.spares {
					ctl = elastic.NewController(eng, clus, rm, target, elastic.Plan{
						Spares: len(spares),
						Notice: 10,
						Script: []elastic.Event{
							{At: 10, Node: spares[0], Kind: elastic.Join},
							{At: 20, Node: spares[1], Kind: elastic.Join},
							{At: 50, Node: spares[0], Kind: elastic.Drain},
						},
					}, spares)
					ctl.SetWatcher(w)
					ctl.Trace = trace.New(eng)
					ctl.Speeds = am.RelativeSpeed
					ctl.Start(seed)
				}

				rm.Start()
				eng.RunUntil(1e6)
				if !d.Finished() || d.Result.Failed {
					t.Fatalf("job did not finish cleanly (failed %v: %s)", d.Result.Failed, d.Result.FailReason)
				}
				if probe.clamped == 0 {
					t.Fatalf("no offer reached the endgame clamp (%d offers)", probe.offers)
				}
				if c.crashes && rejoins == 0 {
					t.Fatal("no crashed node rejoined")
				}
				if c.spares {
					kinds := map[trace.Kind]int{}
					for _, e := range ctl.Trace.Events() {
						kinds[e.Kind]++
					}
					if kinds[trace.KindNodeJoin] < 2 || kinds[trace.KindNodeRelease] < 1 || probe.spareOffers == 0 {
						t.Fatalf("spares did not churn: %d joins, %d releases, %d spare offers",
							kinds[trace.KindNodeJoin], kinds[trace.KindNodeRelease], probe.spareOffers)
					}
				}
			})
		}
	}
}
