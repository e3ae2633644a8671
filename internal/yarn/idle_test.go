package yarn

import (
	"slices"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
)

// demandJob places one container per offer while it has demand, and is
// bound to no node exactly when it has none: its declines do nothing.
type demandJob struct {
	rm     *RM
	demand int
	offers int
	live   []*Container
}

func (j *demandJob) OnSlotFree(n *cluster.Node) bool {
	j.offers++
	if j.demand == 0 {
		return false
	}
	j.demand--
	c := new(Container)
	j.rm.Acquire(n, c)
	j.live = append(j.live, c)
	return true
}

func (j *demandJob) Bound(dst []cluster.NodeID) ([]cluster.NodeID, bool) {
	return dst[:0], j.demand == 0
}

func TestPokeSkipsIdleScheduler(t *testing.T) {
	eng := sim.New()
	rm := NewRM(eng, cluster.Homogeneous(4))
	j := &demandJob{rm: rm}
	rm.SetScheduler(j)
	rm.Start()
	rm.Poke()
	if j.offers != 0 || eng.Pending() != 0 {
		t.Fatalf("idle scheduler: %d offers made, %d events queued; want none", j.offers, eng.Pending())
	}
	j.demand = 3
	rm.Poke()
	if j.offers != 4 || len(j.live) != 3 {
		t.Fatalf("busy scheduler: %d offers, %d grants; want 4 and 3", j.offers, len(j.live))
	}
}

// boundJob declines every offer. It is bound to nodes unless unbound is
// set, and with log set it records the nodes it is offered.
type boundJob struct {
	nodes   []cluster.NodeID
	unbound bool
	log     bool
	seen    []cluster.NodeID
}

func (j *boundJob) OnSlotFree(n *cluster.Node) bool {
	if j.log {
		j.seen = append(j.seen, n.ID)
	}
	return false
}

func (j *boundJob) Bound(dst []cluster.NodeID) ([]cluster.NodeID, bool) {
	if j.unbound {
		return dst[:0], false
	}
	return append(dst[:0], j.nodes...), true
}

// TestPokeOffersOnlyBoundNodes: a bound scheduler's Poke offers its
// nodes in ascending order, and under InterJob a Poke's offers skip a
// bound job on nodes outside its bound. A Poke offers only the union of
// the bounds while every busy job is bound, and every node once one is
// not.
func TestPokeOffersOnlyBoundNodes(t *testing.T) {
	eng := sim.New()
	rm := NewRM(eng, cluster.Homogeneous(8))
	j := &boundJob{nodes: []cluster.NodeID{2, 5}, log: true}
	rm.SetScheduler(j)
	rm.Start()
	if !slices.Equal(j.seen, j.nodes) {
		t.Fatalf("bounded scheduler offered nodes %v, want %v", j.seen, j.nodes)
	}

	_, rm, ij := muxFixture(8, true)
	a := &boundJob{nodes: []cluster.NodeID{1, 6}, log: true}
	b := &boundJob{nodes: []cluster.NodeID{3, 6}, log: true}
	ij.Submit("a", a)
	ij.Submit("b", b)
	ij.Submit("idle", &demandJob{rm: rm})
	rm.Start()
	unbound := &boundJob{unbound: true, log: true}
	ij.Submit("unbound", unbound)
	for _, j := range []*boundJob{a, b} {
		if want := append(slices.Clone(j.nodes), j.nodes...); !slices.Equal(j.seen, want) {
			t.Errorf("bound job was offered nodes %v over two Pokes, want %v", j.seen, want)
		}
	}
	if len(unbound.seen) != 8 {
		t.Errorf("unbound job was offered nodes %v, want all 8", unbound.seen)
	}
}

// TestPokeAllocatesNothing pins a warm Poke at zero allocations: Poke
// takes its bound buffer before it knows the answer, so an idle Poke
// must reuse it too. The cases are an idle scheduler, an InterJob whose
// jobs are all bound (one idle), and an unbound scheduler that is
// offered every node.
func TestPokeAllocatesNothing(t *testing.T) {
	idle, unbound := &demandJob{}, &acceptN{}
	_, boundRM, ij := muxFixture(8, true)
	ij.Submit("a", &boundJob{nodes: []cluster.NodeID{1, 6}})
	ij.Submit("b", &boundJob{nodes: []cluster.NodeID{3, 6}})
	ij.Submit("idle", &demandJob{})
	for _, c := range []struct {
		name   string
		rm     *RM
		sched  Scheduler // nil when the InterJob is already set
		offers func() int64
		offer  bool // whether the Pokes reach the scheduler
	}{
		{"idle", NewRM(sim.New(), cluster.Homogeneous(8)), idle, func() int64 { return int64(idle.offers) }, false},
		{"interjob-bound", boundRM, nil, func() int64 { return ij.consulted }, true},
		{"unbound", NewRM(sim.New(), cluster.Homogeneous(8)), unbound, func() int64 { return int64(unbound.offers) }, true},
	} {
		if c.sched != nil {
			c.rm.SetScheduler(c.sched)
		}
		c.rm.Start()
		before := c.offers()
		if allocs := testing.AllocsPerRun(100, c.rm.Poke); allocs != 0 {
			t.Errorf("%s: %.1f allocs per Poke, want 0", c.name, allocs)
		}
		if offered := c.offers() > before; offered != c.offer {
			t.Errorf("%s: Pokes reached the scheduler: %v, want %v", c.name, offered, c.offer)
		}
	}
}

// checkPacing asserts the invariant that makes a skipped Poke a no-op:
// an up, non-draining node with a free slot inside its pacing window
// already has an offer armed, so offerNow's pacing branch, which a
// skipped sweep never runs, would arm nothing.
func checkPacing(t *testing.T, rm *RM, step int, op string) {
	t.Helper()
	now := rm.eng.Now()
	for _, n := range rm.cluster.Nodes {
		id := n.ID
		if rm.free[id] > 0 && rm.granted[id] && !n.Down() && !n.Draining() &&
			now < rm.lastGrant[id]+sim.Time(AssignDelay) && !rm.offerScheduled[id] {
			t.Fatalf("step %d (%s), t=%v: node %d has %d free slots, last grant at %v, and no offer armed",
				step, op, now, id, rm.free[id], rm.lastGrant[id])
		}
	}
}

// TestPacingInvariant drives random sequences of new work, pokes,
// releases, crashes (NodeLost), restores (NodeRestored), drains, elastic
// releases and joins through an RM, and checks the pacing invariant
// after every operation and every fired event.
func TestPacingInvariant(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := randutil.New(seed)
		eng := sim.New()
		c := cluster.NewCluster("pacing", []cluster.NodeSpec{
			{Slots: 1}, {Slots: 2}, {Slots: 3}, {Slots: 2}, {Slots: 1}, {Slots: 4},
		})
		rm := NewRM(eng, c)
		j := &demandJob{rm: rm}
		rm.SetScheduler(j)
		rm.Start()
		ops := []string{"work", "poke", "release", "crash", "restore", "drain", "elastic-release", "join"}
		for step := 0; step < 300; step++ {
			// Same-instant operations as often as spaced ones, and gaps
			// on both sides of AssignDelay.
			if rng.Intn(2) == 0 {
				until := eng.Now() + sim.Time(rng.Float64()*1.5)
				for eng.Step() {
					checkPacing(t, rm, step, "event")
					if eng.Now() > until {
						break
					}
				}
			}
			op := ops[rng.Intn(len(ops))]
			n := c.Node(cluster.NodeID(rng.Intn(c.Size())))
			switch op {
			case "work":
				j.demand += 1 + rng.Intn(4)
				rm.Poke()
			case "poke":
				rm.Poke()
			case "release":
				if len(j.live) > 0 {
					i := rng.Intn(len(j.live))
					ct := j.live[i]
					j.live = append(j.live[:i], j.live[i+1:]...)
					ct.Release()
				}
			case "crash":
				// A crashed node's containers die with it, unreleased.
				if !n.Down() {
					n.SetDown(true)
					rm.NodeLost(n.ID)
					j.dropOn(n.ID)
				}
			case "restore":
				// The watcher restores a node at its first heartbeat back.
				if n.Down() && !n.Offline() {
					n.SetDown(false)
					rm.NodeRestored(n.ID)
				}
			case "drain":
				if !n.Down() {
					c.StartDrain(n.ID)
				}
			case "elastic-release":
				if n.Draining() {
					rm.NodeReleased(n.ID)
					c.ReleaseNode(n.ID, eng.Now())
					j.dropOn(n.ID)
				}
			case "join":
				if n.Offline() {
					c.JoinNode(n.ID, eng.Now())
					rm.NodeJoined(n.ID)
				}
			}
			checkPacing(t, rm, step, op)
		}
	}
}

// dropOn forgets the containers on a node whose containers are gone.
func (j *demandJob) dropOn(id cluster.NodeID) {
	kept := j.live[:0]
	for _, ct := range j.live {
		if ct.Node.ID != id {
			kept = append(kept, ct)
		}
	}
	j.live = kept
}

// BenchmarkPokeIdle is one Poke on a 10k-node RM whose scheduler is
// idle: the expired-locality-wait case that used to offer every node.
func BenchmarkPokeIdle(b *testing.B) {
	eng := sim.New()
	rm := NewRM(eng, cluster.Homogeneous(10000))
	j := &demandJob{rm: rm}
	rm.SetScheduler(j)
	rm.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm.Poke()
	}
	if j.offers != 0 {
		b.Fatalf("%d offers reached an idle scheduler", j.offers)
	}
}
