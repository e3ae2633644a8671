package engine

import (
	"reflect"
	"sort"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
)

// TestAttemptBookLifecycle drives one book through every transition an
// AM makes and checks the candidate set, the speculative count, the
// free containers and the epoch after each step.
func TestAttemptBookLifecycle(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 24, wcSpec(0))
	splits, err := h.store.Splits("input", 8)
	if err != nil {
		t.Fatal(err)
	}
	var b *AttemptBook
	b = NewAttemptBook(h.driver, func(a *MapAttempt) { b.Win(a) })
	n0, n1 := h.clus.Node(0), h.clus.Node(1)
	// Tasks t, u and k take TaskIDs 0, 1 and 2.
	const taskT, taskU, taskK TaskID = 0, 1, 2
	names := []string{"t", "u", "k"}
	launch := func(id TaskID, n *cluster.Node, bus []dfs.BUID, speculative bool) *MapAttempt {
		ordered, local := b.localFirst(n, bus)
		return b.Launch(MapLaunch{Task: names[id], TaskID: id, Node: n, BUs: ordered, LocalBUs: local, Speculative: speculative})
	}
	total := h.clus.TotalSlots()
	var orig, rival, u1, u2 *MapAttempt

	steps := []struct {
		name       string
		do         func()
		cands      []string // candidate tasks after the step, sorted
		activeSpec int
		free       int
	}{
		{"launch", func() { orig = launch(taskT, n0, splits[0].BUs, false) }, []string{"t"}, 0, total - 1},
		{"speculative launch", func() { rival = launch(taskT, n1, splits[0].BUs, true) }, nil, 1, total - 2},
		{"rival dies", func() {
			if !h.target.PreemptContainer(n1.ID) || !rival.Killed() {
				t.Fatal("rival not preempted")
			}
			if b.Drop(rival) {
				t.Error("task orphaned while its original runs")
			}
		}, []string{"t"}, 0, total - 1},
		{"speculate", func() {
			if !b.Speculate(&fixedPolicy{}, n1) {
				t.Fatal("policy pick not launched")
			}
			rival = b.tasks[taskT].live[1]
		}, nil, 1, total - 2},
		{"win", func() {
			orig.complete()
			if !b.completed(taskT) || !rival.Killed() {
				t.Error("win did not complete the task and kill the loser")
			}
		}, nil, 0, total},
		{"photo finish", func() {
			u1 = launch(taskU, n0, splits[1].BUs, false)
			u2 = launch(taskU, n1, splits[1].BUs, true)
			u2.phase = phaseDone // finished in the same instant as u1
			u1.complete()
			commits := h.driver.BUCommits()
			if b.Win(u2) {
				t.Error("photo-finish loser won")
			}
			if u2.Killed() || !reflect.DeepEqual(commits, h.driver.BUCommits()) {
				t.Error("photo-finish loser was killed or committed")
			}
		}, nil, 0, total},
		{"kill task", func() {
			k1 := launch(taskK, n0, splits[2].BUs, false)
			k2 := launch(taskK, n1, splits[2].BUs, true)
			b.killTask(taskK)
			if !k1.Killed() || !k2.Killed() {
				t.Error("killTask left an attempt running")
			}
		}, nil, 0, total},
		{"reopen", func() {
			if !b.reopen(taskT) || b.completed(taskT) {
				t.Error("completed task not reopened")
			}
			if b.reopen(taskT) {
				t.Error("incomplete task reopened")
			}
		}, nil, 0, total},
	}
	for _, st := range steps {
		before := b.epoch
		st.do()
		if b.epoch == before {
			t.Errorf("%s: epoch did not bump", st.name)
		}
		var cands []string
		for _, a := range b.cands {
			cands = append(cands, a.Task)
		}
		sort.Strings(cands)
		if !reflect.DeepEqual(cands, st.cands) {
			t.Errorf("%s: candidates %v, want %v", st.name, cands, st.cands)
		}
		if b.activeSpec != st.activeSpec {
			t.Errorf("%s: activeSpec %d, want %d", st.name, b.activeSpec, st.activeSpec)
		}
		if free := h.rm.TotalFree(); free != st.free {
			t.Errorf("%s: %d free containers, want %d", st.name, free, st.free)
		}
	}
	if commits := h.driver.BUCommits(); len(commits) != 16 {
		t.Errorf("%d BUs committed, want the 16 of tasks t and u", len(commits))
	}
}

// TestBUCommitsKeepsDroppedBUs pins BUCommits' key set across lost
// output: a BU whose only commit a node loss dropped stays in the map at
// zero, a BU never committed is absent, and a durable per-BU commit on
// the lost node survives.
func TestBUCommitsKeepsDroppedBUs(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 24, wcSpec(0))
	f, _ := h.store.File("input")
	var b *AttemptBook
	b = NewAttemptBook(h.driver, func(a *MapAttempt) { b.Win(a) })
	for id, node := range []cluster.NodeID{0, 1} {
		n := h.clus.Node(node)
		bus, local := b.localFirst(n, f.BUs[8*id:8*id+8])
		b.Launch(MapLaunch{Task: MapTaskName(TaskID(id)), TaskID: TaskID(id), Node: n, BUs: bus, LocalBUs: local})
	}
	h.eng.Run()
	prefix := h.driver.CommitOutputForBUs(0, f.BUs[16:20])

	lost := h.driver.dropResidentOutput(0)
	if !reflect.DeepEqual(lost, f.BUs[:8]) {
		t.Fatalf("lost %v, want node 0's task output %v", lost, f.BUs[:8])
	}
	want := map[dfs.BUID]int{}
	for i, bu := range f.BUs[:20] {
		want[bu] = 1
		if i < 8 {
			want[bu] = 0
		}
	}
	if got := h.driver.BUCommits(); !reflect.DeepEqual(got, want) {
		t.Errorf("BUCommits after the loss = %v, want %v", got, want)
	}
	if got := h.driver.IntermediateOn(0); got != prefix {
		t.Errorf("node 0 holds %d intermediate bytes, want the durable prefix's %d", got, prefix)
	}
	if h.driver.Result.OutputBUsLost != 8 {
		t.Errorf("OutputBUsLost = %d, want 8", h.driver.Result.OutputBUsLost)
	}
	if again := h.driver.dropResidentOutput(0); again != nil {
		t.Errorf("second loss of node 0 dropped %v again", again)
	}
}

// BenchmarkAttemptBookWin measures one task's trip through the book:
// the original and a speculative copy launch, the original completes,
// and Win commits its output and kills the copy.
func BenchmarkAttemptBookWin(b *testing.B) {
	const perHarness = 1 << 12 // bounds the result and commit logs
	var h *harness
	var book *AttemptBook
	var bus []dfs.BUID
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%perHarness == 0 {
			b.StopTimer()
			h = newHarness(b, cluster.Homogeneous(2), 8, wcSpec(0))
			book = NewAttemptBook(h.driver, func(a *MapAttempt) { book.Win(a) })
			f, _ := h.store.File("input")
			bus = f.BUs
			b.StartTimer()
		}
		id := TaskID(i % perHarness)
		orig := book.Launch(MapLaunch{Task: "map", TaskID: id, Node: h.clus.Node(0), BUs: bus})
		book.Launch(MapLaunch{Task: "map", TaskID: id, Node: h.clus.Node(1), BUs: bus, Speculative: true})
		orig.phaseEv.Cancel()
		orig.complete()
		h.eng.Run() // pops the two canceled phase events
	}
}
