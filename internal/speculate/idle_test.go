package speculate

import (
	"fmt"
	"sort"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/engine"
	"flexmap/internal/mr"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/yarn"
)

// idleAudit wraps LATE and checks Idle on every probe of a real run: an
// Idle answer must mean Pick declines every node, and an empty candidate
// set or a full cap must always read as Idle.
type idleAudit struct {
	t                 *testing.T
	l                 *LATE
	idle, busy, atCap int
}

func (a *idleAudit) Pick(d *engine.Driver, node *cluster.Node, cands []*engine.MapAttempt, epoch uint64, active int) *engine.MapAttempt {
	idle := a.l.Idle(d, cands, epoch, active)
	if idle {
		a.idle++
		for _, n := range d.Cluster.Nodes {
			if v := a.l.Pick(d, n, cands, epoch, active); v != nil {
				a.t.Fatalf("t=%v: Idle, but Pick chose %s on node %d", d.Eng.Now(), v.Task, n.ID)
			}
		}
	} else {
		a.busy++
	}
	if active >= a.l.cap(d) {
		a.atCap++
	}
	if !idle && (len(cands) == 0 || active >= a.l.cap(d)) {
		a.t.Fatalf("t=%v: %d candidates and %d of %d copies in flight, but not Idle", d.Eng.Now(), len(cands), active, a.l.cap(d))
	}
	return a.l.Pick(d, node, cands, epoch, active)
}

func (a *idleAudit) Idle(d *engine.Driver, cands []*engine.MapAttempt, epoch uint64, active int) bool {
	return a.l.Idle(d, cands, epoch, active)
}

func TestLATEIdleMatchesPick(t *testing.T) {
	a := &idleAudit{t: t, l: NewLATE()}
	r := runStock(t, a, 0.15)
	t.Logf("%d probes idle, %d busy, %d at the cap; %d copies launched", a.idle, a.busy, a.atCap, r.SpeculativeLaunches)
	if a.idle == 0 || a.busy == 0 || a.atCap == 0 || r.SpeculativeLaunches == 0 {
		t.Fatal("the run no longer covers idle, busy and capped probes")
	}
}

func TestLATEIdle(t *testing.T) {
	eng := sim.New()
	c := cluster.NewCluster("idle", []cluster.NodeSpec{
		{Name: "a", BaseSpeed: 1, Slots: 2},
		{Name: "b", BaseSpeed: 1, Slots: 2},
		{Name: "slow", BaseSpeed: 0.2, Slots: 2},
	})
	store := dfs.NewStore(c, 3, randutil.New(4))
	if _, err := store.AddFile("input", 8*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	spec := mr.JobSpec{Name: "wc", InputFile: "input", MapCost: 1}
	rm := yarn.NewRM(eng, c)
	d, err := engine.NewDriver(engine.NewExecutor(eng, c, engine.BaseIPS), store, rm, spec)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := store.File("input")
	slow := c.Node(2)
	straggler := []*engine.MapAttempt{d.LaunchMap(engine.MapLaunch{
		Task: "map-0000", Node: slow, BUs: f.BUs, LocalBUs: len(f.BUs),
		OnDone: func(a *engine.MapAttempt) { a.Container.Release() },
	})}
	l := NewLATE()
	if !l.Idle(d, straggler, 1, 0) {
		t.Error("not Idle while the only candidate is younger than MinAge")
	}
	eng.RunUntil(10)
	if l.Idle(d, straggler, 2, 0) {
		t.Error("Idle with a clear straggler and a free cap")
	}
	if !l.Idle(d, straggler, 2, 1) {
		t.Error("not Idle with the speculation cap full")
	}
	if !l.Idle(d, nil, 3, 0) {
		t.Error("not Idle with no candidates")
	}
}

// TestLATEIdleWhenNoNodeCanWin: with a straggler to duplicate and a free
// cap, Idle still answers true, and Pick declines every member, when no
// member's fresh copy would beat the straggler. Idle turns false once a
// speed change or a join brings a node fast enough.
func TestLATEIdleWhenNoNodeCanWin(t *testing.T) {
	eng := sim.New()
	c := cluster.NewCluster("nowin", []cluster.NodeSpec{
		{Name: "a", BaseSpeed: 1, Slots: 2},
		{Name: "b", BaseSpeed: 1, Slots: 2},
		{Name: "slow", BaseSpeed: 0.5, Slots: 2},
	})
	spare := c.AddSpares(1, cluster.NodeSpec{Class: "spare", BaseSpeed: 4, Slots: 2})[0]
	store := dfs.NewStore(c, 3, randutil.New(4))
	if _, err := store.AddFile("input", 8*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	spec := mr.JobSpec{Name: "wc", InputFile: "input", MapCost: 1}
	rm := yarn.NewRM(eng, c)
	d, err := engine.NewDriver(engine.NewExecutor(eng, c, engine.BaseIPS), store, rm, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Every member runs at the straggler's speed, so a fresh copy, which
	// pays the overhead again, is always behind it.
	a := c.Node(0)
	a.SetInterference(0.5)
	c.Node(1).SetInterference(0.5)
	f, _ := store.File("input")
	slow := c.Node(2)
	straggler := []*engine.MapAttempt{d.LaunchMap(engine.MapLaunch{
		Task: "map-0000", Node: slow, BUs: f.BUs, LocalBUs: len(f.BUs),
		OnDone: func(a *engine.MapAttempt) { a.Container.Release() },
	})}
	eng.RunUntil(4)
	l := NewLATE()
	if v, _ := l.victim(eng.Now(), straggler, 1); v == nil {
		t.Fatal("no straggler ranked; the case no longer reaches the fastest-node test")
	}
	check := func(when string, wantIdle bool, fast *cluster.Node) {
		t.Helper()
		if got := l.Idle(d, straggler, 1, 0); got != wantIdle {
			t.Fatalf("%s: Idle = %v, want %v", when, got, wantIdle)
		}
		for _, n := range c.Nodes {
			if n.Offline() {
				continue
			}
			if v := l.Pick(d, n, straggler, 1, 0); v != nil && wantIdle {
				t.Fatalf("%s: Idle, but Pick chose %s on node %d", when, v.Task, n.ID)
			}
		}
		if fast != nil && l.Pick(d, fast, straggler, 1, 0) == nil {
			t.Fatalf("%s: Pick declined node %d", when, fast.ID)
		}
	}
	check("every member as slow as the straggler", true, nil)
	a.SetInterference(1)
	check("interference on node a lifted", false, a)
	a.SetInterference(0.5)
	check("interference on node a back", true, nil)
	c.JoinNode(spare, eng.Now())
	check("a fast spare joined", false, c.Node(spare))
	c.ReleaseNode(spare, eng.Now())
	check("the spare released", true, nil)
}

// TestSelectKthMatchesSort pins the selection against the sorted
// reference for every k, over random rate sets with heavy duplication,
// sorted and reversed inputs, and single values.
func TestSelectKthMatchesSort(t *testing.T) {
	rng := randutil.New(9)
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(60)
		distinct := 1 + rng.Intn(n)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(distinct)) * 0.37
		}
		switch trial % 4 {
		case 1:
			sort.Float64s(xs)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		for k := range xs {
			work := append([]float64(nil), xs...)
			if got := selectKth(work, k); got != want[k] {
				t.Fatalf("trial %d: selectKth(%v, %d) = %v, want %v", trial, xs, k, got, want[k])
			}
		}
	}
}

// BenchmarkSelectVictim ranks the candidates of 2,000 nodes of mixed
// speed: one straggler choice as LATE makes it per instant. "mature" is
// 4,000 attempts past minAge. "immature-tail" is FlexMap's endgame on
// 10,000 nodes: the same 4,000, then 36,000 launched inside minAge, in
// launch order, which the scan cuts off at the first. Both probe one
// instant, so the threshold never moves and the band always hits.
// "advancing" probes the mature set at instants 50 ms apart, wrapping
// after a second: the threshold drifts, and jumps back at the wrap.
func BenchmarkSelectVictim(b *testing.B) {
	for _, c := range []struct {
		name string
		tail int          // immature attempts per node
		step sim.Duration // clock advance between probes
	}{{"mature", 0, 0}, {"immature-tail", 18, 0}, {"advancing", 0, 0.05}} {
		b.Run(c.name, func(b *testing.B) { benchSelectVictim(b, c.tail, c.step) })
	}
}

func benchSelectVictim(b *testing.B, tail int, step sim.Duration) {
	const nodes, slots, busPerTask = 2000, 2, 8
	eng := sim.New()
	specs := make([]cluster.NodeSpec, nodes)
	for i := range specs {
		specs[i] = cluster.NodeSpec{Name: fmt.Sprintf("n%04d", i), BaseSpeed: []float64{1, 1.5, 2.4, 2.8}[i%4], Slots: slots + tail}
	}
	c := cluster.NewCluster("bench", specs)
	store := dfs.NewStore(c, 3, randutil.New(4))
	if _, err := store.AddFile("input", nodes*slots*busPerTask*dfs.BUSize); err != nil {
		b.Fatal(err)
	}
	rm := yarn.NewRM(eng, c)
	d, err := engine.NewDriver(engine.NewExecutor(eng, c, engine.BaseIPS), store, rm, mr.JobSpec{Name: "wc", InputFile: "input", MapCost: 1})
	if err != nil {
		b.Fatal(err)
	}
	f, _ := store.File("input")
	var cands []*engine.MapAttempt
	// launch starts per more attempts on every node. A node's s-th
	// attempt reads the node's s%slots-th split, so the tail rereads the
	// mature attempts' input.
	launch := func(per int) {
		for i, n := range c.Nodes {
			for s := 0; s < per; s++ {
				lo := (slots*i + s%slots) * busPerTask
				cands = append(cands, d.LaunchMap(engine.MapLaunch{
					Task: fmt.Sprintf("map-%05d", len(cands)), Node: n,
					BUs: f.BUs[lo : lo+busPerTask], LocalBUs: busPerTask,
					OnDone: func(a *engine.MapAttempt) { a.Container.Release() },
				}))
			}
		}
	}
	launch(slots)
	eng.RunUntil(4) // past MinAge, before the fastest attempts finish
	launch(tail)
	l := NewLATE()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, _ := l.selectVictim(eng.Now()+sim.Time(step)*sim.Time(i%20), cands); v == nil {
			b.Fatal("no victim")
		}
	}
}
