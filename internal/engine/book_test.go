package engine

import (
	"reflect"
	"sort"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
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
		checkCands(t, b, st.name)
		var cands []string
		for _, a := range b.cands {
			if a != nil {
				cands = append(cands, a.Task)
			}
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

// checkCands checks the candidate set's invariants: live entries in
// non-decreasing Start order, each at the position its task records, no
// trailing tombstone, a tombstone count that matches the nil entries,
// and membership exactly for the incomplete tasks whose one live attempt
// is an unkilled original.
func checkCands(t *testing.T, b *AttemptBook, step string) {
	t.Helper()
	holes := 0
	var prev *MapAttempt
	for i, a := range b.cands {
		if a == nil {
			holes++
			continue
		}
		if prev != nil && a.Start < prev.Start {
			t.Fatalf("%s: candidate %s at %d started at %v, before %s ahead of it at %v", step, a.Task, i, a.Start, prev.Task, prev.Start)
		}
		prev = a
		if got := b.tasks[a.TaskID].cand; got != i+1 {
			t.Fatalf("%s: candidate %s sits at %d, its task records %d", step, a.Task, i, got-1)
		}
	}
	if holes != b.holes {
		t.Fatalf("%s: %d nil entries, book counts %d", step, holes, b.holes)
	}
	if n := len(b.cands); n > 0 && b.cands[n-1] == nil {
		t.Fatalf("%s: the candidate set ends in a tombstone", step)
	}
	for id := range b.tasks {
		ts := &b.tasks[id]
		want := !ts.completed && len(ts.live) == 1 && !ts.live[0].Speculative && !ts.live[0].Killed()
		if got := ts.cand > 0; got != want {
			t.Fatalf("%s: task %d is a candidate: %v, want %v", step, id, got, want)
		}
		if want && b.cands[ts.cand-1] != ts.live[0] {
			t.Fatalf("%s: task %d's position holds another attempt", step, id)
		}
	}
}

// TestAttemptBookCandidateOrder drives books through random sequences of
// original and speculative launches, wins, fault drops, task kills and
// reopens, with the clock advancing between them, and checks the
// candidate set's invariants after every transition. Drops that kill a
// speculative copy promote its original back into the set among
// younger candidates.
func TestAttemptBookCandidateOrder(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		const tasks = 2000
		h := newHarness(t, cluster.Homogeneous(100), tasks, wcSpec(0))
		f, _ := h.store.File("input")
		rng := randutil.New(seed)
		var b *AttemptBook
		b = NewAttemptBook(h.driver, func(a *MapAttempt) {
			b.Win(a)
			checkCands(t, b, "win")
		})
		next := TaskID(0)
		promotions := 0 // originals re-inserted ahead of younger candidates
		launch := func(id TaskID, speculative bool) {
			n := h.clus.Node(cluster.NodeID(rng.Intn(h.clus.Size())))
			if h.rm.FreeSlots(n.ID) == 0 {
				return
			}
			b.Launch(MapLaunch{Task: MapTaskName(id), TaskID: id, Node: n, BUs: f.BUs[id : id+1], Speculative: speculative})
			checkCands(t, b, "launch")
		}
		// pick returns a random task matching ok, or false.
		pick := func(ok func(*taskState) bool) (TaskID, bool) {
			var ids []TaskID
			for id := range b.tasks {
				if ok(&b.tasks[id]) {
					ids = append(ids, TaskID(id))
				}
			}
			if len(ids) == 0 {
				return 0, false
			}
			return ids[rng.Intn(len(ids))], true
		}
		for step := 0; step < 6000; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				for k := 0; k < 4 && next < tasks; k++ {
					launch(next, false)
					if int(next) < len(b.tasks) && len(b.tasks[next].live) > 0 {
						next++
					}
				}
			case op < 5:
				if id, ok := pick(func(ts *taskState) bool { return !ts.completed && len(ts.live) == 1 }); ok {
					launch(id, true)
				}
			case op < 6:
				h.eng.RunUntil(h.eng.Now() + sim.Time(0.2*rng.Float64()))
			case op < 8:
				if id, ok := pick(func(ts *taskState) bool { return len(ts.live) > 0 }); ok {
					live := b.tasks[id].live
					a := live[rng.Intn(len(live))]
					promote := len(live) == 2 && a.Speculative
					if !h.driver.preempt(a) {
						t.Fatalf("%s not preempted", a.Task)
					}
					b.Drop(a)
					checkCands(t, b, "drop")
					if pos := b.tasks[id].cand; promote && pos > 0 && pos < len(b.cands) {
						promotions++
					}
				}
			case op < 9:
				if id, ok := pick(func(ts *taskState) bool { return len(ts.live) > 0 }); ok {
					b.killTask(id)
					checkCands(t, b, "killTask")
				}
			default:
				if id, ok := pick(func(ts *taskState) bool { return ts.completed }); ok {
					b.reopen(id)
					checkCands(t, b, "reopen")
				} else if id, ok := pick(func(ts *taskState) bool { return !ts.completed && len(ts.live) == 0 }); ok {
					launch(id, false)
				}
			}
		}
		t.Logf("seed %d: %d originals re-inserted ahead of younger candidates, %d tasks launched", seed, promotions, next)
		if promotions == 0 {
			t.Fatalf("seed %d: no drop re-inserted an original ahead of a younger candidate", seed)
		}
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
	if got := h.driver.interByNode[0]; got != prefix {
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
