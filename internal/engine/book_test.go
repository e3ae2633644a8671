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
	launch := func(task string, n *cluster.Node, bus []dfs.BUID, speculative bool) *MapAttempt {
		ordered, local := b.localFirst(n, bus)
		return b.Launch(MapLaunch{Task: task, Node: n, BUs: ordered, LocalBUs: local, Speculative: speculative})
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
		{"launch", func() { orig = launch("t", n0, splits[0].BUs, false) }, []string{"t"}, 0, total - 1},
		{"speculative launch", func() { rival = launch("t", n1, splits[0].BUs, true) }, nil, 1, total - 2},
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
			rival = b.attempts["t"][1]
		}, nil, 1, total - 2},
		{"win", func() {
			orig.complete()
			if !b.completed["t"] || !rival.Killed() {
				t.Error("win did not complete the task and kill the loser")
			}
		}, nil, 0, total},
		{"photo finish", func() {
			u1 = launch("u", n0, splits[1].BUs, false)
			u2 = launch("u", n1, splits[1].BUs, true)
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
			k1 := launch("k", n0, splits[2].BUs, false)
			k2 := launch("k", n1, splits[2].BUs, true)
			b.killTask("k")
			if !k1.Killed() || !k2.Killed() {
				t.Error("killTask left an attempt running")
			}
		}, nil, 0, total},
		{"reopen", func() {
			if !b.reopen("t") || b.completed["t"] {
				t.Error("completed task not reopened")
			}
			if b.reopen("t") {
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
