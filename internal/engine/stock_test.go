package engine

import (
	"reflect"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/sim"
)

func TestStockMapOnlyJob(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(4), 64, wcSpec(0))
	am := bindStock(t, h.driver, 8, nil)
	h.rm.Start()
	h.eng.Run()
	checkInvariants(t, h, 64)
	r := h.driver.Result
	if r.Finished != r.MapPhaseEnd {
		t.Fatal("map-only job should finish with the map phase")
	}
	if len(r.MapAttempts()) != 8 { // 64 BUs / 8 per split
		t.Fatalf("%d map attempts, want 8", len(r.MapAttempts()))
	}
	if am.tasksRemaining != 0 || am.PendingCount() != 0 {
		t.Fatal("AM left work behind")
	}
	if len(r.ReduceAttempts()) != 0 {
		t.Fatal("map-only job ran reducers")
	}
}

func TestStockWithReducers(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(4), 64, wcSpec(4))
	bindStock(t, h.driver, 8, nil)
	h.rm.Start()
	h.eng.Run()
	checkInvariants(t, h, 64)
	r := h.driver.Result
	if len(r.ReduceAttempts()) != 4 {
		t.Fatalf("%d reduce attempts, want 4", len(r.ReduceAttempts()))
	}
	if r.Finished <= r.MapPhaseEnd {
		t.Fatal("reduce phase should take time after maps")
	}
	// Shuffle volume conservation: reducers processed totalInter bytes.
	var reduceBytes int64
	for _, a := range r.ReduceAttempts() {
		reduceBytes += a.Bytes
	}
	if want := h.driver.totalInter; reduceBytes > want || reduceBytes < want-int64(len(r.ReduceAttempts())) {
		t.Fatalf("reducers processed %d bytes, total intermediate %d", reduceBytes, want)
	}
}

func TestStockHomogeneousTiming(t *testing.T) {
	// 4 nodes × 2 slots; 64 BUs in 8-BU (64 MB) splits → 8 tasks, one
	// wave. Each task: 2 s overhead + 6.62 s compute (spill-adjusted);
	// the second slot per node is granted one NM heartbeat (1 s) later,
	// so the wave ends ≈ 9.6 s.
	h := newHarness(t, cluster.Homogeneous(4), 64, wcSpec(0))
	bindStock(t, h.driver, 8, nil)
	h.rm.Start()
	h.eng.Run()
	r := h.driver.Result
	jct := float64(r.JCT())
	if jct < 9.3 || jct > 10.0 {
		t.Fatalf("homogeneous one-wave JCT = %v, want ≈9.6", jct)
	}
	for _, a := range r.MapAttempts() {
		if a.LocalBUs != a.BUs {
			t.Errorf("task %s read remotely in a one-wave local run", a.Task)
		}
		if a.Wave != 0 {
			t.Errorf("task %s wave %d, want 0", a.Task, a.Wave)
		}
	}
}

func TestStockHeterogeneousTailEffect(t *testing.T) {
	// Same work on a heterogeneous cluster must take longer than the
	// equivalent-capacity expectation and show task runtime spread.
	run := func(c *cluster.Cluster) *sim.Time {
		h := newHarness(t, c, 128, wcSpec(0))
		bindStock(t, h.driver, 8, nil)
		h.rm.Start()
		h.eng.Run()
		end := h.driver.Result.Finished
		return &end
	}
	homo := run(cluster.Homogeneous(6))
	het := run(cluster.Heterogeneous6())
	// The heterogeneous cluster has HIGHER aggregate capacity (its nodes
	// are ≥1.0 speed) yet its runtime is NOT proportionally better due to
	// the slow-node tail; its map runtime variance must be visible.
	if *het >= *homo {
		t.Logf("note: heterogeneous (%v) not faster than homogeneous (%v) despite extra capacity — tail effect", *het, *homo)
	}
}

func TestStockLargerSplitsFewerTasks(t *testing.T) {
	h64 := newHarness(t, cluster.Homogeneous(4), 128, wcSpec(0))
	bindStock(t, h64.driver, 8, nil)
	h64.rm.Start()
	h64.eng.Run()

	h128 := newHarness(t, cluster.Homogeneous(4), 128, wcSpec(0))
	bindStock(t, h128.driver, 16, nil)
	h128.rm.Start()
	h128.eng.Run()

	n64 := len(h64.driver.Result.MapAttempts())
	n128 := len(h128.driver.Result.MapAttempts())
	if n64 != 16 || n128 != 8 {
		t.Fatalf("attempts = %d/%d, want 16/8", n64, n128)
	}
	// On a homogeneous cluster, larger tasks amortize overhead better.
	if h128.driver.Result.JCT() >= h64.driver.Result.JCT() {
		t.Fatal("128 MB splits should beat 64 MB on a homogeneous cluster")
	}
}

func TestStockRemoteExecutionAfterLocalityWait(t *testing.T) {
	// Replication 1 on a fast/slow pair: half the data is local to each
	// node, so the fast node must eventually steal remote splits from
	// the slow node's half rather than idle.
	eng := sim.New()
	c := cluster.NewCluster("fastslow", []cluster.NodeSpec{
		{Name: "fast", BaseSpeed: 4.0, Slots: 2},
		{Name: "slow", BaseSpeed: 1.0, Slots: 2},
	})
	store := dfs.NewStore(c, 1, testRNG())
	if _, err := store.AddFile("input", 128*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	rm := newRM(eng, c)
	d, err := NewDriver(NewExecutor(eng, c, BaseIPS), store, rm, wcSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	bindStock(t, d, 8, nil)
	rm.Start()
	eng.Run()
	if !d.Finished() {
		t.Fatal("job did not finish")
	}
	remoteTasks := 0
	for _, a := range d.Result.MapAttempts() {
		if a.LocalBUs < a.BUs {
			remoteTasks++
		}
	}
	if remoteTasks == 0 {
		t.Fatal("no remote execution happened despite one-node data placement")
	}
	if d.Result.RemoteBytesRead == 0 {
		t.Fatal("remote reads not accounted")
	}
}

func TestStockDeterminism(t *testing.T) {
	run := func() (sim.Time, int) {
		h := newHarness(t, cluster.Heterogeneous6(), 96, wcSpec(4))
		bindStock(t, h.driver, 8, nil)
		h.rm.Start()
		h.eng.Run()
		return h.driver.Result.Finished, len(h.driver.Result.Attempts)
	}
	e1, a1 := run()
	e2, a2 := run()
	if e1 != e2 || a1 != a2 {
		t.Fatalf("non-deterministic run: (%v,%d) vs (%v,%d)", e1, a1, e2, a2)
	}
}

// TestLostOutputRequeuesInNameOrder pins the order in which lost output
// re-queues its owning tasks: by task name, across the map-9999 and
// map-10000 boundary where name order and TaskID order part, with a
// SkewTune subtask (its TaskID is its mint order) owning two split BUs.
func TestLostOutputRequeuesInNameOrder(t *testing.T) {
	const splits = 10002
	h := newHarness(t, cluster.Homogeneous(4), splits, wcSpec(0))
	am := bindStock(t, h.driver, 1, nil)
	for am.pending.Len() > 0 {
		am.pending.takeFIFO()
	}
	buOf := func(id TaskID) dfs.BUID { return am.tasks[id].split.BUs[0] }
	sub := am.indexSplit(PendingSplit{Task: "map-0001.r1.0", BUs: []dfs.BUID{buOf(1), buOf(3)}})
	am.book.tasks = make([]taskState, len(am.tasks))
	for _, id := range []TaskID{2, 9999, 10000, sub.TaskID} {
		am.book.tasks[id].completed = true
	}
	lost := []dfs.BUID{buOf(1), buOf(2), buOf(3), buOf(9999), buOf(10000)}
	am.OnNodeLost(0, nil, lost)

	var got []string
	for am.pending.Len() > 0 {
		p, _ := am.pending.takeFIFO()
		got = append(got, p.Task)
	}
	want := []string{"map-0001.r1.0", "map-0002", "map-10000", "map-9999"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-queue order %v, want %v", got, want)
	}
	if h.driver.Result.TaskRetries != len(want) {
		t.Errorf("TaskRetries = %d, want %d", h.driver.Result.TaskRetries, len(want))
	}
}

// TestRemotePickDeclinesFullNode: with its locality wait expired, the
// remote pick declines a node that has no free slot instead of launching
// on it. SkewTune reaches that state in a multi-job run: its repartition
// queues hostless subtasks and pokes the RM from inside its offer, and
// the nested sweep can hand the offered node's last slot to another job
// before SkewTune dispatches.
func TestRemotePickDeclinesFullNode(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	am := bindStock(t, h.driver, 8, nil)
	h.rm.Start() // one local split on each node
	node := h.clus.Node(0)
	h.rm.Acquire(node) // another job takes the node's last slot
	am.AddPending(PendingSplit{Task: "sub", BUs: []dfs.BUID{0}}, 1)
	am.remoteAllowedAt[node.ID] = h.eng.Now()
	if am.TryDispatch(node) {
		t.Fatal("dispatched onto a node with no free slot")
	}
	if am.PendingCount() != 1 {
		t.Fatalf("%d splits pending after the decline, want 1", am.PendingCount())
	}
}
