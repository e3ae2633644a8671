package speculate

import (
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/engine"
	"flexmap/internal/mr"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/yarn"
)

// runStock executes stock Hadoop with the given policy on a cluster with
// one very slow node and returns the result.
func runStock(t *testing.T, policy engine.SpeculationPolicy, slowSpeed float64) *mr.JobResult {
	t.Helper()
	eng := sim.New()
	c := cluster.NewCluster("spec", []cluster.NodeSpec{
		{Name: "fast-0", BaseSpeed: 1, Slots: 2},
		{Name: "fast-1", BaseSpeed: 1, Slots: 2},
		{Name: "fast-2", BaseSpeed: 1, Slots: 2},
		{Name: "slow", BaseSpeed: slowSpeed, Slots: 2},
	})
	store := dfs.NewStore(c, 3, randutil.New(4))
	if _, err := store.AddFile("input", 64*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	spec := mr.JobSpec{Name: "wc", InputFile: "input", MapCost: 1, ShuffleRatio: 0, ReduceCost: 0}
	rm := yarn.NewRM(eng, c)
	d, err := engine.NewDriver(engine.NewExecutor(eng, c, engine.BaseIPS), store, rm, spec)
	if err != nil {
		t.Fatal(err)
	}
	am, err := engine.NewStockAM(d, 8, policy)
	if err != nil {
		t.Fatal(err)
	}
	rm.SetScheduler(am)
	rm.Start()
	eng.RunUntil(1e6)
	if !d.Finished() {
		t.Fatal("job did not finish")
	}
	return d.Result
}

func TestLATESpeculatesOnStragglers(t *testing.T) {
	r := runStock(t, NewLATE(), 0.15)
	if r.SpeculativeLaunches == 0 {
		t.Fatal("LATE never speculated despite a 6.7x straggler")
	}
}

func TestLATEImprovesJCT(t *testing.T) {
	with := runStock(t, NewLATE(), 0.15)
	without := runStock(t, nil, 0.15)
	if with.JCT() >= without.JCT() {
		t.Fatalf("speculation did not help: with=%v without=%v", with.JCT(), without.JCT())
	}
}

func TestLATEQuietOnHomogeneous(t *testing.T) {
	r := runStock(t, NewLATE(), 1.0)
	if r.SpeculativeLaunches != 0 {
		t.Fatalf("LATE launched %d copies on a homogeneous cluster", r.SpeculativeLaunches)
	}
}

func TestLATELosersAreKilledAndWorkIsNotDoubled(t *testing.T) {
	r := runStock(t, NewLATE(), 0.15)
	totalBUs := 0
	for _, a := range r.MapAttempts() {
		totalBUs += a.BUs
	}
	if totalBUs != 64 {
		t.Fatalf("successful attempts cover %d BUs, want exactly 64 (no double output)", totalBUs)
	}
	// Every speculation race must leave exactly one survivor per task.
	byTask := map[string]int{}
	for _, a := range r.MapAttempts() {
		byTask[a.Task]++
	}
	for task, n := range byTask {
		if n != 1 {
			t.Fatalf("task %s has %d successful attempts", task, n)
		}
	}
}

func TestLATESpecCapRespected(t *testing.T) {
	r := runStock(t, NewLATE(), 0.15)
	// 8 slots → cap 1 in-flight (0.8 → max(1)). Total launches may exceed
	// the cap over time but should stay small on this tiny job.
	if r.SpeculativeLaunches > 4 {
		t.Fatalf("%d speculative launches; cap not limiting", r.SpeculativeLaunches)
	}
}

func TestLATEDefaultsFilledLazily(t *testing.T) {
	var l LATE // zero value
	r := runStock(t, &l, 0.15)
	if r.SpeculativeLaunches == 0 {
		t.Fatal("zero-value LATE never speculated")
	}
}

func TestLATEPickDeclinesOnSlowNode(t *testing.T) {
	// Direct unit probe of the slow-node rule: build a trivial driver and
	// verify Pick refuses to place copies on the slowest machine.
	eng := sim.New()
	c := cluster.NewCluster("pick", []cluster.NodeSpec{
		{Name: "a", BaseSpeed: 1, Slots: 2},
		{Name: "b", BaseSpeed: 1, Slots: 2},
		{Name: "c", BaseSpeed: 1, Slots: 2},
		{Name: "slow", BaseSpeed: 0.2, Slots: 2},
	})
	store := dfs.NewStore(c, 3, randutil.New(4))
	if _, err := store.AddFile("input", 16*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	spec := mr.JobSpec{Name: "wc", InputFile: "input", MapCost: 1, ShuffleRatio: 0, ReduceCost: 0}
	rm := yarn.NewRM(eng, c)
	d, err := engine.NewDriver(engine.NewExecutor(eng, c, engine.BaseIPS), store, rm, spec)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := store.File("input")
	slowNode := c.Node(3)
	attempt := d.LaunchMap(engine.MapLaunch{
		Task: "map-0000", Node: slowNode,
		BUs: f.BUs[:8], LocalBUs: 8,
		OnDone: func(a *engine.MapAttempt) { a.Container.Release() },
	})
	eng.RunUntil(10) // let progress accumulate past MinAge

	l := NewLATE()
	if got := l.Pick(d, slowNode, []*engine.MapAttempt{attempt}, 1, 0); got != nil {
		t.Fatal("Pick placed a speculative copy on the slowest node")
	}
	if got := l.Pick(d, c.Node(0), []*engine.MapAttempt{attempt}, 2, 0); got == nil {
		t.Fatal("Pick refused a healthy node for a clear straggler")
	}
	// Cap exhausted → nil.
	if got := l.Pick(d, c.Node(0), []*engine.MapAttempt{attempt}, 3, 100); got != nil {
		t.Fatal("Pick ignored the speculation cap")
	}
	// No candidates → nil.
	if got := l.Pick(d, c.Node(0), nil, 4, 0); got != nil {
		t.Fatal("Pick invented a candidate")
	}
}
