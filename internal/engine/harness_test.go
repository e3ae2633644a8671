package engine

import (
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/mr"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/yarn"
)

func testRNG() *randutil.Source { return randutil.New(11) }

func newRM(eng *sim.Engine, c *cluster.Cluster) *yarn.RM { return yarn.NewRM(eng, c) }

// harness wires a full single-job simulation for tests. Tests inject
// crashes, restores and preemptions through target, as the runner does.
type harness struct {
	eng    *sim.Engine
	clus   *cluster.Cluster
	store  *dfs.Store
	rm     *yarn.RM
	driver *Driver
	target *FaultTarget
}

func newHarness(t testing.TB, c *cluster.Cluster, fileBUs int64, spec mr.JobSpec) *harness {
	t.Helper()
	eng := sim.New()
	store := dfs.NewStore(c, 3, randutil.New(11))
	if _, err := store.AddFile(spec.InputFile, fileBUs*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	rm := yarn.NewRM(eng, c)
	d, err := NewDriver(NewExecutor(eng, c, BaseIPS), store, rm, spec)
	if err != nil {
		t.Fatal(err)
	}
	target := NewFaultTarget(c)
	target.Add(d)
	return &harness{eng: eng, clus: c, store: store, rm: rm, driver: d, target: target}
}

// bindStock builds a stock AM over d and binds it to d's RM, as the
// runner binds the scheduler it builds for a job.
func bindStock(t testing.TB, d *Driver, splitBUs int, policy SpeculationPolicy) *StockAM {
	t.Helper()
	am, err := NewStockAM(d, splitBUs, policy)
	if err != nil {
		t.Fatal(err)
	}
	d.RM.SetScheduler(am)
	return am
}

func wcSpec(reducers int) mr.JobSpec {
	return mr.JobSpec{
		Name: "wordcount", InputFile: "input", NumReducers: reducers,
		MapCost: 1.0, ShuffleRatio: 0.3, ReduceCost: 1.0,
	}
}

// checkInvariants validates cross-engine result invariants the paper's
// metrics rely on.
func checkInvariants(t *testing.T, h *harness, totalBUs int) {
	t.Helper()
	r := h.driver.Result
	if !h.driver.Finished() {
		t.Fatal("job did not finish")
	}
	if r.Finished < r.MapPhaseEnd || r.MapPhaseEnd < r.MapPhaseStart {
		t.Fatalf("phase ordering broken: %v %v %v", r.MapPhaseStart, r.MapPhaseEnd, r.Finished)
	}
	// Every BU processed exactly once by successful attempts.
	seen := map[string]int{}
	buCount := 0
	for _, a := range r.MapAttempts() {
		seen[a.Task]++
		buCount += a.BUs
		if a.LocalBUs > a.BUs {
			t.Fatalf("attempt %s local %d > total %d", a.Task, a.LocalBUs, a.BUs)
		}
		if p := a.Productivity(); p <= 0 || p > 1 {
			t.Fatalf("attempt %s productivity %v out of (0,1]", a.Task, p)
		}
	}
	for task, n := range seen {
		if n != 1 {
			t.Fatalf("task %s has %d successful attempts", task, n)
		}
	}
	if buCount != totalBUs {
		t.Fatalf("successful attempts cover %d BUs, want %d", buCount, totalBUs)
	}
	if eff := r.Efficiency(); eff <= 0 || eff > 1+1e-9 {
		t.Fatalf("efficiency %v out of (0,1]", eff)
	}
	// All slots must be free again (every container released).
	if h.rm.TotalFree() != h.clus.TotalSlots() {
		t.Fatalf("leaked containers: %d free of %d", h.rm.TotalFree(), h.clus.TotalSlots())
	}
}
