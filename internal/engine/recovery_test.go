package engine

import (
	"fmt"
	"strings"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/sim"
	"flexmap/internal/yarn"
)

// attachLiveness wires heartbeat-timeout detection into a harness the
// way runner does when a fault plan is active.
func attachLiveness(h *harness) *yarn.NodeWatcher {
	w := yarn.NewNodeWatcher(h.eng, h.clus, h.rm)
	h.target.AttachWatcher(w)
	h.driver.OnFinished(h.eng.Stop)
	return w
}

// checkExactlyOnce asserts the canonical recovery invariant: after a
// successful run every input BU has exactly one surviving commit.
func checkExactlyOnce(t *testing.T, h *harness, totalBUs int) {
	t.Helper()
	commits := h.driver.BUCommits()
	if len(commits) != totalBUs {
		t.Fatalf("commits cover %d BUs, want %d", len(commits), totalBUs)
	}
	for id, n := range commits {
		if n != 1 {
			t.Fatalf("BU %d committed %d times, want exactly 1", id, n)
		}
	}
}

func TestStockCrashRequeuesWholeSplitsAndCompletes(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(4), 64, wcSpec(0))
	bindStock(t, h.driver, 8, nil)
	attachLiveness(h)
	// Node 1 dies mid-first-wave and comes back before the job ends.
	h.eng.At(4, "crash", func() { h.target.CrashNode(1) })
	h.eng.At(22, "restore", func() { h.target.RestoreNode(1) })
	h.rm.Start()
	h.eng.Run()
	checkInvariants(t, h, 64)
	checkExactlyOnce(t, h, 64)
	r := h.driver.Result
	if r.NodesLost != 1 {
		t.Fatalf("NodesLost = %d, want 1", r.NodesLost)
	}
	if r.AttemptsCrashed != 2 { // both of node 1's slots were busy
		t.Fatalf("AttemptsCrashed = %d, want 2", r.AttemptsCrashed)
	}
	if r.TaskRetries != 2 {
		t.Fatalf("TaskRetries = %d, want 2 whole-split requeues", r.TaskRetries)
	}
	if r.ReprocessedBytes <= 0 {
		t.Fatal("whole-split requeue should charge the processed-at-crash bytes")
	}
	// Crashed attempts appear in the trace, marked.
	crashed := 0
	for _, a := range r.Attempts {
		if a.Crashed {
			if !a.Killed {
				t.Fatalf("attempt %s crashed but not killed", a.Task)
			}
			crashed++
		}
	}
	if crashed != 2 {
		t.Fatalf("trace has %d crashed attempts, want 2", crashed)
	}
}

// A rejoin before the heartbeat timeout still delivers the dead
// attempts (the node's containers died with the outage), but no
// committed output is lost: the disk survived.
func TestStockBriefOutageLosesNoOutput(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(4), 128, wcSpec(0))
	bindStock(t, h.driver, 8, nil)
	attachLiveness(h)
	// The outage spans one watcher tick (t=15) but stays under the
	// 3-beat timeout: observed down, never declared lost.
	h.eng.At(12, "crash", func() { h.target.CrashNode(1) }) // wave 1 outputs resident
	h.eng.At(18, "restore", func() { h.target.RestoreNode(1) })
	h.rm.Start()
	h.eng.Run()
	checkExactlyOnce(t, h, 128)
	r := h.driver.Result
	if r.NodesLost != 0 {
		t.Fatalf("NodesLost = %d, want 0 (outage shorter than timeout)", r.NodesLost)
	}
	if r.NodesRejoined != 1 {
		t.Fatalf("NodesRejoined = %d, want 1", r.NodesRejoined)
	}
	if r.OutputBUsLost != 0 {
		t.Fatalf("OutputBUsLost = %d, want 0: the disk survived", r.OutputBUsLost)
	}
}

func TestStockLostOutputReexecutesCompletedTasks(t *testing.T) {
	// 128 BUs → 16 tasks → two waves on 8 slots. Crashing node 1 after
	// wave 1 (t=12) discards its completed, resident map output; the
	// owning tasks must re-run so unfetched reducers can still shuffle.
	h := newHarness(t, cluster.Homogeneous(4), 128, wcSpec(4))
	bindStock(t, h.driver, 8, nil)
	attachLiveness(h)
	h.eng.At(12, "crash", func() { h.target.CrashNode(1) })
	h.eng.At(40, "restore", func() { h.target.RestoreNode(1) })
	h.rm.Start()
	h.eng.Run()
	if !h.driver.Finished() || h.driver.Result.Failed {
		t.Fatal("job did not complete")
	}
	checkExactlyOnce(t, h, 128)
	r := h.driver.Result
	if r.OutputBUsLost == 0 {
		t.Fatal("expected resident output lost with the declared node")
	}
	// The re-executed tasks completed twice (first output was lost), so
	// successful records cover more BUs than the input has.
	total := 0
	for _, a := range r.MapAttempts() {
		total += a.BUs
	}
	if total <= 128 {
		t.Fatalf("successful attempts cover %d BUs; re-execution should exceed 128", total)
	}
}

func TestStockRetryExhaustionFailsJob(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(1), 8, wcSpec(0))
	am := bindStock(t, h.driver, 8, nil)
	am.maxTaskAttempts = 2
	attachLiveness(h)
	// The only node crashes while its single task runs, twice. The task
	// relaunches at t=41 (first allocation after the restore) and runs
	// ~8.5 s, so the second crash at t=45 lands mid-attempt.
	h.eng.At(3, "crash-1", func() { h.target.CrashNode(0) })
	h.eng.At(40, "restore-1", func() { h.target.RestoreNode(0) })
	h.eng.At(45, "crash-2", func() { h.target.CrashNode(0) })
	h.eng.At(120, "restore-2", func() { h.target.RestoreNode(0) })
	h.rm.Start()
	h.eng.Run()
	r := h.driver.Result
	if !r.Failed {
		t.Fatal("job should fail after maxTaskAttempts crashes of one task")
	}
	if !strings.Contains(r.FailReason, "crashed 2 times") {
		t.Fatalf("FailReason = %q", r.FailReason)
	}
	if !h.driver.Finished() {
		t.Fatal("failed job must still count as finished (tickers stop)")
	}
}

func TestStockRetryBackoffDoubles(t *testing.T) {
	// Same-task crash twice: the first requeue waits retryBackoff, the
	// second 2×retryBackoff. Observed via the relaunch times of the
	// crashed task's attempts.
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	am := bindStock(t, h.driver, 8, nil)
	am.maxTaskAttempts = 4
	attachLiveness(h)
	h.eng.At(3, "crash-1", func() { h.target.CrashNode(0) })
	h.eng.At(30, "restore-1", func() { h.target.RestoreNode(0) })
	h.rm.Start()
	h.eng.Run()
	if h.driver.Result.Failed {
		t.Fatalf("unexpected failure: %s", h.driver.Result.FailReason)
	}
	checkExactlyOnce(t, h, 16)
	if h.driver.Result.TaskRetries == 0 {
		t.Fatal("no retries recorded")
	}
}

func TestPreemptionRequeuesWithoutRetryCharge(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(4), 64, wcSpec(0))
	bindStock(t, h.driver, 8, nil)
	h.eng.At(4, "preempt", func() {
		running := h.driver.runningOn(2)
		if len(running) == 0 || !h.driver.preempt(running[len(running)-1]) {
			t.Error("no container preempted on a busy node")
		}
	})
	h.rm.Start()
	h.eng.Run()
	checkInvariants(t, h, 64)
	checkExactlyOnce(t, h, 64)
	r := h.driver.Result
	if r.Preemptions != 1 {
		t.Fatalf("Preemptions = %d, want 1", r.Preemptions)
	}
	if r.NodesLost != 0 {
		t.Fatalf("NodesLost = %d, want 0: preemption is not a node failure", r.NodesLost)
	}
}

// sharedNode builds jobs drivers on one 4-slot node, added to a fault
// target in index order, with a one-split input each.
func sharedNode(t *testing.T, jobs int) (*sim.Engine, *cluster.Cluster, *yarn.RM, *FaultTarget, []*Driver, [][]dfs.BUID) {
	t.Helper()
	eng := sim.New()
	c := cluster.NewCluster("one", []cluster.NodeSpec{{Name: "n0", BaseSpeed: 1, Slots: 4}})
	store := dfs.NewStore(c, 1, testRNG())
	rm := newRM(eng, c)
	x := NewExecutor(eng, c, BaseIPS)
	target := NewFaultTarget(c)
	var drivers []*Driver
	var splits [][]dfs.BUID
	for j := 0; j < jobs; j++ {
		spec := wcSpec(0)
		spec.Name = fmt.Sprintf("j%d", j)
		spec.InputFile = spec.Name + "/input"
		if _, err := store.AddFile(spec.InputFile, 2*dfs.BUSize); err != nil {
			t.Fatal(err)
		}
		sp, err := store.Splits(spec.InputFile, 2)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDriver(x, store, rm, spec)
		if err != nil {
			t.Fatal(err)
		}
		target.Add(d)
		drivers = append(drivers, d)
		splits = append(splits, sp[0].BUs)
	}
	return eng, c, rm, target, drivers, splits
}

// TestFaultTargetDeliversNodeEvents pins the target's own deliveries:
// a watcher attached through it reaches every unfinished driver with a
// loss declaration and a rejoin, and DrainNode sums the drivers'
// preemptions. The failed driver sits between two live ones, so a walk
// that drops either end fails.
func TestFaultTargetDeliversNodeEvents(t *testing.T) {
	eng, c, rm, target, drivers, splits := sharedNode(t, 3)
	n := c.Node(0)
	w := yarn.NewNodeWatcher(eng, c, rm)
	target.AttachWatcher(w)
	drivers[1].FailJob("test")
	// Liveness ticks every 5 s: the crash at 1 is declared lost at 15,
	// and the node restored at 27 rejoins at the tick at 30.
	eng.At(1, "crash", func() { target.CrashNode(n.ID) })
	eng.At(27, "restore", func() { target.RestoreNode(n.ID) })
	eng.RunUntil(35)
	for j, d := range drivers {
		want := 1
		if j == 1 {
			want = 0
		}
		if r := d.Result; r.NodesLost != want || r.NodesRejoined != want {
			t.Errorf("driver %d: NodesLost %d, NodesRejoined %d, want %d each", j, r.NodesLost, r.NodesRejoined, want)
		}
	}
	for _, j := range []int{0, 2} {
		drivers[j].LaunchMap(MapLaunch{
			Task: "map-0001", Node: n,
			BUs: splits[j], LocalBUs: len(splits[j]),
		})
	}
	if got := target.DrainNode(n.ID); got != 2 {
		t.Fatalf("DrainNode preempted %d, want 2 (one per live driver)", got)
	}
	for j, d := range drivers {
		want := 1
		if j == 1 {
			want = 0
		}
		if d.Result.Preemptions != want {
			t.Errorf("driver %d counted %d preemptions, want %d", j, d.Result.Preemptions, want)
		}
	}
}

func TestReducePhaseCrashMigratesPartitions(t *testing.T) {
	// Baseline run pins the map-phase end, then a second identical run
	// crashes a node two seconds into the reduce phase.
	base := newHarness(t, cluster.Homogeneous(4), 64, wcSpec(8))
	bindStock(t, base.driver, 8, nil)
	base.rm.Start()
	base.eng.Run()
	mapEnd := base.driver.Result.MapPhaseEnd
	if mapEnd <= 0 || base.driver.Result.Finished <= mapEnd {
		t.Fatalf("baseline has no reduce phase (mapEnd %v)", mapEnd)
	}

	h := newHarness(t, cluster.Homogeneous(4), 64, wcSpec(8))
	bindStock(t, h.driver, 8, nil)
	attachLiveness(h)
	h.eng.At(mapEnd+2, "crash", func() { h.target.CrashNode(1) })
	h.rm.Start()
	h.eng.Run()
	r := h.driver.Result
	if !h.driver.Finished() || r.Failed {
		t.Fatal("job did not complete after a reduce-phase crash")
	}
	reduceOK := map[string]int{}
	crashedReduces := 0
	for _, a := range r.Attempts {
		if a.Type.String() != "reduce" {
			continue
		}
		if a.Crashed {
			crashedReduces++
			continue
		}
		if !a.Killed {
			reduceOK[a.Task]++
		}
	}
	if crashedReduces == 0 {
		t.Fatal("no reduce attempt crashed at the injected time")
	}
	if len(reduceOK) != 8 {
		t.Fatalf("%d reduce partitions completed, want 8", len(reduceOK))
	}
	for task, n := range reduceOK {
		if n != 1 {
			t.Fatalf("reduce %s has %d successful attempts, want exactly 1", task, n)
		}
	}
}

func TestCrashNodeIsIdempotent(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	bindStock(t, h.driver, 8, nil)
	attachLiveness(h)
	h.eng.At(3, "crash", func() {
		h.target.CrashNode(0)
		h.target.CrashNode(0) // double-crash must be a no-op
	})
	h.eng.At(25, "restore", func() { h.target.RestoreNode(0) })
	h.rm.Start()
	h.eng.Run()
	checkExactlyOnce(t, h, 16)
	if got := h.driver.Result.NodesLost; got != 1 {
		t.Fatalf("NodesLost = %d, want 1", got)
	}
}
