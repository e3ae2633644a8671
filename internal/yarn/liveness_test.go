package yarn

import (
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
)

// livenessHarness wires a watcher over a homogeneous cluster with a
// scheduler that accepts nothing (capacity stays observable).
type livenessHarness struct {
	eng     *sim.Engine
	c       *cluster.Cluster
	rm      *RM
	w       *NodeWatcher
	lost    []cluster.NodeID
	rejoins []cluster.NodeID
}

func newLivenessHarness(nodes int) *livenessHarness {
	eng := sim.New()
	c := cluster.Homogeneous(nodes)
	rm := NewRM(eng, c)
	rm.SetScheduler(&acceptN{rm: rm, n: 0})
	h := &livenessHarness{eng: eng, c: c, rm: rm, w: NewNodeWatcher(eng, c, rm)}
	h.w.OnLost(func(id cluster.NodeID) { h.lost = append(h.lost, id) })
	h.w.OnRejoin(func(id cluster.NodeID) { h.rejoins = append(h.rejoins, id) })
	rm.Start()
	return h
}

// TestLossDeclaredAtThirdMissedBeat pins the detection boundary: with a
// 5 s period and threshold 3, a node that goes silent just after a beat
// is NOT lost while only 2 beats are missed, and IS lost at the tick
// where the third beat goes missing.
func TestLossDeclaredAtThirdMissedBeat(t *testing.T) {
	h := newLivenessHarness(2)
	// Last heartbeat observed at t=5; node dies right after.
	h.eng.At(6, "crash", func() { h.c.Node(0).SetDown(true) })

	h.eng.RunUntil(15) // beats at 10, 15 missed — only 2
	if h.w.lost[0] {
		t.Fatal("node declared lost after 2 missed beats (N-1)")
	}
	if len(h.lost) != 0 {
		t.Fatalf("lost callbacks = %v, want none yet", h.lost)
	}

	h.eng.RunUntil(20) // third missed beat
	if !h.w.lost[0] {
		t.Fatal("node not declared lost after 3 missed beats")
	}
	if len(h.lost) != 1 || h.lost[0] != 0 {
		t.Fatalf("lost callbacks = %v, want [0]", h.lost)
	}
	if free := h.rm.TotalFree(); free != h.c.Node(1).Slots {
		t.Fatalf("free slots after loss = %d, want only node 1's %d", free, h.c.Node(1).Slots)
	}
}

// TestLivenessSweepDetectionBoundary pins the exact detection time of the
// batched sweep: with period 5 and threshold 3, a node in the middle of
// the cluster silent from just after t=5 is declared precisely at the
// t=20 sweep, not the t=15 one. The subtest keeps the name it had when
// the engine could be split into shards; the single heap is that case.
func TestLivenessSweepDetectionBoundary(t *testing.T) {
	t.Run("shards1", func(t *testing.T) {
		eng := sim.New()
		c := cluster.Homogeneous(10)
		rm := NewRM(eng, c)
		rm.SetScheduler(&acceptN{rm: rm, n: 0})
		w := NewNodeWatcher(eng, c, rm)
		var lostAt []sim.Time
		w.OnLost(func(cluster.NodeID) { lostAt = append(lostAt, eng.Now()) })
		eng.At(6, "crash", func() { c.Node(3).SetDown(true) })
		eng.RunUntil(15)
		if w.lost[3] || len(lostAt) != 0 {
			t.Fatal("node declared lost after only 2 missed beats")
		}
		eng.RunUntil(20)
		if !w.lost[3] {
			t.Fatal("node not declared lost at the third missed beat")
		}
		if len(lostAt) != 1 || lostAt[0] != 20 {
			t.Fatalf("loss declared at %v, want exactly [20]", lostAt)
		}
	})
}

func TestRejoinRestoresCapacityAndFires(t *testing.T) {
	h := newLivenessHarness(2)
	h.eng.At(6, "crash", func() { h.c.Node(0).SetDown(true) })
	h.eng.At(42, "restore", func() { h.c.Node(0).SetDown(false) })
	h.eng.RunUntil(100)
	if h.w.lost[0] {
		t.Fatal("node still marked lost after rejoin")
	}
	if len(h.rejoins) != 1 || h.rejoins[0] != 0 {
		t.Fatalf("rejoin callbacks = %v, want [0]", h.rejoins)
	}
	if free := h.rm.TotalFree(); free != h.c.TotalSlots() {
		t.Fatalf("free slots after rejoin = %d, want full %d", free, h.c.TotalSlots())
	}
}

// A blip shorter than the timeout is never declared lost, but the
// node's containers still died: the first heartbeat after the outage
// reconciles capacity and fires rejoin hooks.
func TestBriefOutageRejoinsWithoutLoss(t *testing.T) {
	h := newLivenessHarness(2)
	h.eng.At(6, "crash", func() { h.c.Node(0).SetDown(true) })
	h.eng.At(12, "restore", func() { h.c.Node(0).SetDown(false) })
	h.eng.RunUntil(60)
	if len(h.lost) != 0 {
		t.Fatalf("brief outage declared lost: %v", h.lost)
	}
	if len(h.rejoins) != 1 || h.rejoins[0] != 0 {
		t.Fatalf("rejoin callbacks = %v, want [0]", h.rejoins)
	}
}

func TestRepeatedCrashRejoinCycles(t *testing.T) {
	h := newLivenessHarness(1)
	h.eng.At(6, "crash-1", func() { h.c.Node(0).SetDown(true) })
	h.eng.At(62, "restore-1", func() { h.c.Node(0).SetDown(false) })
	h.eng.At(106, "crash-2", func() { h.c.Node(0).SetDown(true) })
	h.eng.At(162, "restore-2", func() { h.c.Node(0).SetDown(false) })
	h.eng.RunUntil(200)
	if len(h.lost) != 2 {
		t.Fatalf("loss declarations = %d, want 2", len(h.lost))
	}
	if len(h.rejoins) != 2 {
		t.Fatalf("rejoins = %d, want 2", len(h.rejoins))
	}
	if h.rm.TotalFree() != h.c.TotalSlots() {
		t.Fatal("capacity not restored after final rejoin")
	}
}

// A deregistered node, one released from membership, is a planned
// departure: the silence that follows
// must never be declared a loss, however long it lasts, and the members
// left are tracked as before.
func TestDeregisteredNodeSilenceNotLost(t *testing.T) {
	h := newLivenessHarness(2)
	h.eng.At(6, "release", func() { h.c.ReleaseNode(0, h.eng.Now()) })
	h.eng.At(51, "crash", func() { h.c.Node(1).SetDown(true) })
	h.eng.RunUntil(200)
	if len(h.lost) != 1 || h.lost[0] != 1 {
		t.Fatalf("lost callbacks = %v, want only the crashed member [1]", h.lost)
	}
}

// Deregistering (releasing) a node already declared lost clears its
// pending state: powering up while offline fires no rejoin, since the
// outage belongs to a membership that ended, and neither does its next
// join, since Register clears the loss.
func TestDeregisterClearsPendingLossAndRejoin(t *testing.T) {
	h := newLivenessHarness(2)
	h.eng.At(6, "crash", func() { h.c.Node(0).SetDown(true) })
	h.eng.At(25, "release", func() {
		if !h.w.lost[0] {
			t.Fatal("precondition: node should be lost by t=25")
		}
		h.c.ReleaseNode(0, h.eng.Now())
	})
	h.eng.At(30, "power-up", func() { h.c.Node(0).SetDown(false) })
	h.eng.At(100, "join", func() {
		h.c.JoinNode(0, h.eng.Now())
		h.w.Register(0)
	})
	h.eng.RunUntil(200)
	if len(h.rejoins) != 0 {
		t.Fatalf("stale rejoin fired for a released node: %v", h.rejoins)
	}
	if len(h.lost) != 1 {
		t.Fatalf("lost callbacks = %v, want the one declaration before release", h.lost)
	}
	if h.w.lost[0] {
		t.Fatal("node still marked lost after its join")
	}
}

// Register starts the heartbeat clock fresh: a node enrolled at time T
// gets the full DefaultMissThreshold × DefaultLivenessPeriod before any
// loss declaration, even if it was silent long before T.
func TestRegisterGrantsFullTimeout(t *testing.T) {
	h := newLivenessHarness(2)
	h.eng.At(6, "release", func() { h.c.ReleaseNode(0, h.eng.Now()) })
	// Rejoin at t=60 but immediately dead: loss needs beats at 65, 70,
	// 75 all missed — declared at the t=75 tick, not before.
	h.eng.At(60, "rejoin", func() {
		h.c.JoinNode(0, h.eng.Now())
		h.c.Node(0).SetDown(true) // joins broken: never heartbeats
		h.w.Register(0)
	})
	h.eng.RunUntil(70)
	if len(h.lost) != 0 {
		t.Fatalf("re-registered node lost before a full fresh timeout: %v", h.lost)
	}
	h.eng.RunUntil(75)
	if len(h.lost) != 1 || h.lost[0] != 0 {
		t.Fatalf("lost callbacks = %v, want [0] at third missed beat", h.lost)
	}
}

// A deregister/register (release/join) cycle while the node stays up
// fires nothing, and tracking resumes after Register: a crash after the
// join is declared at the third missed beat.
func TestDeregisterRegisterCycleWhileUp(t *testing.T) {
	h := newLivenessHarness(1)
	h.eng.At(10, "release", func() { h.c.ReleaseNode(0, h.eng.Now()) })
	h.eng.At(40, "join", func() {
		h.c.JoinNode(0, h.eng.Now())
		h.w.Register(0)
	})
	h.eng.RunUntil(100)
	if len(h.lost) != 0 || len(h.rejoins) != 0 {
		t.Fatalf("cycle fired callbacks: lost=%v rejoins=%v", h.lost, h.rejoins)
	}
	// Last beat at 100; beats at 105, 110 and 115 are missed.
	h.eng.At(101, "crash", func() { h.c.Node(0).SetDown(true) })
	h.eng.RunUntil(110)
	if len(h.lost) != 0 {
		t.Fatalf("lost before the third missed beat: %v", h.lost)
	}
	h.eng.RunUntil(115)
	if len(h.lost) != 1 || h.lost[0] != 0 {
		t.Fatalf("lost callbacks = %v, want [0] at t=115", h.lost)
	}
}

// Offline spares provisioned before the watcher starts are not members,
// so they start deregistered: their silence is never a loss.
func TestOfflineSparesStartDeregistered(t *testing.T) {
	eng := sim.New()
	c := cluster.Homogeneous(2)
	c.AddSpares(2, cluster.NodeSpec{})
	rm := NewRM(eng, c)
	rm.SetScheduler(&acceptN{rm: rm, n: 0})
	w := NewNodeWatcher(eng, c, rm)
	var lost []cluster.NodeID
	w.OnLost(func(id cluster.NodeID) { lost = append(lost, id) })
	rm.Start()
	eng.RunUntil(200)
	if len(lost) != 0 {
		t.Fatalf("offline spares declared lost: %v", lost)
	}
}
