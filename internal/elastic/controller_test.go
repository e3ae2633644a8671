package elastic

import (
	"reflect"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
)

// fakeRM records capacity calls and serves a scripted occupancy.
type fakeRM struct {
	calls []string
	busy  int
	slots int
}

func (f *fakeRM) NodeJoined(id cluster.NodeID)   { f.calls = append(f.calls, "joined") }
func (f *fakeRM) NodeReleased(id cluster.NodeID) { f.calls = append(f.calls, "released") }
func (f *fakeRM) Occupancy() (int, int)          { return f.busy, f.slots }

// fakeDrainer records evictions and reports a fixed preempted count.
type fakeDrainer struct {
	drained   []cluster.NodeID
	preempted int
}

func (f *fakeDrainer) DrainNode(id cluster.NodeID) int {
	f.drained = append(f.drained, id)
	return f.preempted
}

// fakeWatcher records liveness registrations.
type fakeWatcher struct{ calls []string }

func (f *fakeWatcher) Register(id cluster.NodeID) { f.calls = append(f.calls, "register") }

type harness struct {
	eng     *sim.Engine
	c       *cluster.Cluster
	rm      *fakeRM
	drainer *fakeDrainer
	watcher *fakeWatcher
	spares  []cluster.NodeID
	ctl     *Controller
}

func newHarness(t *testing.T, plan Plan, spares int) *harness {
	t.Helper()
	h := &harness{
		eng:     sim.New(),
		c:       cluster.Homogeneous(4),
		rm:      &fakeRM{},
		drainer: &fakeDrainer{},
		watcher: &fakeWatcher{},
	}
	h.spares = h.c.AddSpares(spares, cluster.NodeSpec{})
	h.ctl = NewController(h.eng, h.c, h.rm, h.drainer, plan, h.spares)
	h.ctl.SetWatcher(h.watcher)
	h.ctl.Trace = trace.New(h.eng)
	return h
}

// count returns how many membership changes of the kind the controller
// has applied, read from its trace: node-join, node-drain or
// node-release.
func (h *harness) count(kind trace.Kind) int {
	n := 0
	for _, e := range h.ctl.Trace.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func scriptPlan(script ...Event) Plan {
	return Plan{Spares: 2, Notice: 30, SpotNotice: 5, Script: script}
}

func TestControllerJoin(t *testing.T) {
	h := newHarness(t, Plan{Spares: 2, Script: []Event{{At: 10, Node: 4, Kind: Join}}}, 2)
	h.ctl.Start(1)
	if len(h.ctl.schedule) != 1 {
		t.Fatalf("armed %d events, want 1", len(h.ctl.schedule))
	}
	h.eng.RunUntil(5)
	if !h.c.Node(h.spares[0]).Offline() {
		t.Fatal("spare online before its join fired")
	}
	h.eng.RunUntil(20)
	if h.c.Node(h.spares[0]).Offline() {
		t.Fatal("spare still offline after join")
	}
	if want := []string{"joined"}; !reflect.DeepEqual(h.rm.calls, want) {
		t.Fatalf("rm calls = %v, want %v", h.rm.calls, want)
	}
	if want := []string{"register"}; !reflect.DeepEqual(h.watcher.calls, want) {
		t.Fatalf("watcher calls = %v, want %v", h.watcher.calls, want)
	}
	if got := h.count(trace.KindNodeJoin); got != 1 {
		t.Fatalf("joins = %d, want 1", got)
	}
}

func TestControllerJoinIdempotent(t *testing.T) {
	h := newHarness(t, scriptPlan(
		Event{At: 10, Node: 4, Kind: Join},
		Event{At: 12, Node: 4, Kind: Join},
		Event{At: 14, Node: 99, Kind: Join}, // not a spare
	), 2)
	h.ctl.Start(1)
	h.eng.RunUntil(20)
	if got := h.count(trace.KindNodeJoin); got != 1 {
		t.Fatalf("joins = %d, want 1 (double join and non-spare are no-ops)", got)
	}
}

func TestControllerDrainThenRelease(t *testing.T) {
	h := newHarness(t, scriptPlan(
		Event{At: 10, Node: 4, Kind: Join},
		Event{At: 20, Node: 4, Kind: Drain},
	), 2)
	h.drainer.preempted = 2
	h.ctl.Start(1)
	h.eng.RunUntil(40) // drained at 20, release pending until 50
	if n := h.c.Node(h.spares[0]); n.Offline() || !n.Draining() {
		t.Fatalf("during the notice: offline %v, draining %v; want a draining member", n.Offline(), n.Draining())
	}
	if want := []string{"joined"}; !reflect.DeepEqual(h.rm.calls, want) {
		t.Fatalf("rm calls during notice = %v, want %v", h.rm.calls, want)
	}
	h.eng.RunUntil(60)
	if n := h.c.Node(h.spares[0]); !n.Offline() || n.Draining() {
		t.Fatalf("after release: offline %v, draining %v; want offline", n.Offline(), n.Draining())
	}
	if want := []string{"joined", "released"}; !reflect.DeepEqual(h.rm.calls, want) {
		t.Fatalf("rm calls = %v, want %v", h.rm.calls, want)
	}
	if want := []string{"register"}; !reflect.DeepEqual(h.watcher.calls, want) {
		t.Fatalf("watcher calls = %v, want %v", h.watcher.calls, want)
	}
	if want := []cluster.NodeID{4}; !reflect.DeepEqual(h.drainer.drained, want) {
		t.Fatalf("drained = %v, want %v", h.drainer.drained, want)
	}
	if d, r := h.count(trace.KindNodeDrain), h.count(trace.KindNodeRelease); d != 1 || r != 1 {
		t.Fatalf("drains/releases = %d/%d, want 1/1", d, r)
	}
}

func TestControllerSpotUsesShortNotice(t *testing.T) {
	h := newHarness(t, scriptPlan(
		Event{At: 10, Node: 4, Kind: Join},
		Event{At: 20, Node: 4, Kind: Spot},
	), 2)
	h.ctl.Start(1)
	h.eng.RunUntil(26) // SpotNotice 5 → release at 25
	if !h.c.Node(h.spares[0]).Offline() {
		t.Fatal("spot reclaim did not release at the short notice")
	}
}

func TestControllerDrainNoOps(t *testing.T) {
	h := newHarness(t, scriptPlan(
		Event{At: 10, Node: 4, Kind: Drain}, // never joined
		Event{At: 20, Node: 5, Kind: Join},
		Event{At: 30, Node: 5, Kind: Drain},
		Event{At: 32, Node: 5, Kind: Drain}, // already draining
		Event{At: 34, Node: 5, Kind: Join},  // draining nodes don't rejoin
		Event{At: 36, Node: 0, Kind: Drain}, // a base node, not a spare
	), 2)
	h.ctl.Start(1)
	h.eng.RunUntil(100)
	if h.c.Node(0).Draining() {
		t.Fatal("the controller drained a base node")
	}
	if got := h.count(trace.KindNodeDrain); got != 1 {
		t.Fatalf("drains = %d, want 1", got)
	}
	if got := h.count(trace.KindNodeJoin); got != 1 {
		t.Fatalf("joins = %d, want 1", got)
	}
	if !h.c.Node(h.spares[1]).Offline() {
		t.Fatal("drained spare should be offline at the end")
	}
}

func autoPlan() Plan {
	return Plan{
		Spares:     2,
		Notice:     10,
		SpotNotice: 5,
		Autoscale:  &Autoscaler{Interval: 10, Streak: 2, Cooldown: 15},
	}
}

func TestAutoscalerScaleOutAfterStreak(t *testing.T) {
	h := newHarness(t, autoPlan(), 2)
	h.rm.busy, h.rm.slots = 8, 8 // saturated
	h.ctl.Start(1)
	h.eng.RunUntil(11)
	if h.count(trace.KindNodeJoin) != 0 {
		t.Fatal("scaled out after one tick; streak is 2")
	}
	h.eng.RunUntil(21)
	if got := h.count(trace.KindNodeJoin); got != 1 {
		t.Fatalf("joins after streak = %d, want 1", got)
	}
	if h.c.Node(h.spares[0]).Offline() {
		t.Fatal("scale-out should join the lowest-ID offline spare")
	}
	// Cooldown 15 spans the next tick; the one after may act again.
	h.eng.RunUntil(31)
	if got := h.count(trace.KindNodeJoin); got != 1 {
		t.Fatalf("joins during cooldown = %d, want 1", got)
	}
	h.eng.RunUntil(51)
	if got := h.count(trace.KindNodeJoin); got != 2 {
		t.Fatalf("joins after cooldown = %d, want 2", got)
	}
}

// TestAutoscalerWatermarks: a tick counts toward scale-out at exactly
// highWater busy slots and toward scale-in at exactly lowWater, and
// never one busy slot inside either.
func TestAutoscalerWatermarks(t *testing.T) {
	const slots = 800
	if highWater*slots != 700 || lowWater*slots != 200 {
		t.Fatalf("watermarks %v/%v are not whole slot counts of %d", highWater, lowWater, slots)
	}
	h := newHarness(t, autoPlan(), 2)
	h.rm.busy, h.rm.slots = 699, slots
	h.ctl.Start(1)
	h.eng.RunUntil(100)
	if got := h.count(trace.KindNodeJoin); got != 0 {
		t.Fatalf("joins = %d one slot under highWater, want 0", got)
	}
	h.rm.busy = 700
	h.eng.RunUntil(200)
	if got := h.count(trace.KindNodeJoin); got != 2 {
		t.Fatalf("joins = %d at highWater, want 2", got)
	}
	h.rm.busy = 201
	h.eng.RunUntil(300)
	if got := h.count(trace.KindNodeDrain); got != 0 {
		t.Fatalf("drains = %d one slot over lowWater, want 0", got)
	}
	h.rm.busy = 200
	h.eng.RunUntil(400)
	if h.count(trace.KindNodeDrain) == 0 {
		t.Fatal("no scale-in at lowWater")
	}
}

func TestAutoscalerScaleInPicksSlowest(t *testing.T) {
	h := newHarness(t, autoPlan(), 2)
	h.rm.busy, h.rm.slots = 8, 8
	speeds := map[cluster.NodeID]float64{4: 0.5, 5: 2.0}
	h.ctl.Speeds = func(id cluster.NodeID) float64 { return speeds[id] }
	h.ctl.Start(1)
	h.eng.RunUntil(55) // both spares join (saturation persists)
	if got := h.count(trace.KindNodeJoin); got != 2 {
		t.Fatalf("joins = %d, want 2", got)
	}
	h.rm.busy = 0 // idle: scale in
	h.eng.RunUntil(200)
	if h.count(trace.KindNodeDrain) == 0 {
		t.Fatal("no scale-in despite idle occupancy")
	}
	if got := h.drainer.drained[0]; got != 4 {
		t.Fatalf("first release = node %d, want the slowest (4)", got)
	}
}

func TestAutoscalerScaleInWithoutSpeeds(t *testing.T) {
	h := newHarness(t, autoPlan(), 2)
	h.rm.busy, h.rm.slots = 8, 8
	h.ctl.Start(1)
	h.eng.RunUntil(55)
	h.rm.busy = 0
	h.eng.RunUntil(100)
	if h.count(trace.KindNodeDrain) == 0 {
		t.Fatal("no scale-in despite idle occupancy")
	}
	if got := h.drainer.drained[0]; got != 5 {
		t.Fatalf("first release = node %d, want the highest ID (5)", got)
	}
}

func TestAutoscalerNoSlotsNoAction(t *testing.T) {
	h := newHarness(t, autoPlan(), 2)
	h.rm.busy, h.rm.slots = 0, 0
	h.ctl.Start(1)
	h.eng.RunUntil(100)
	if h.count(trace.KindNodeJoin) != 0 || h.count(trace.KindNodeDrain) != 0 {
		t.Fatal("autoscaler acted with zero reported slots")
	}
}

func TestAutoscalerExhaustedPool(t *testing.T) {
	h := newHarness(t, autoPlan(), 0) // no spares provisioned
	h.rm.busy, h.rm.slots = 8, 8
	h.ctl.Start(1)
	h.eng.RunUntil(100)
	if h.count(trace.KindNodeJoin) != 0 {
		t.Fatal("joined with an empty spare pool")
	}
}

// The autoscaler's decisions are a pure function of the occupancy
// sequence it observes: two identical runs act identically.
func TestAutoscalerDeterministic(t *testing.T) {
	type action struct {
		joins, drains int
	}
	run := func() []action {
		h := newHarness(t, autoPlan(), 2)
		h.rm.slots = 8
		// Scripted occupancy: saturate for 60 s, idle for 140 s.
		h.eng.At(0, "load", func() { h.rm.busy = 8 })
		h.eng.At(60, "unload", func() { h.rm.busy = 0 })
		h.ctl.Start(7)
		var log []action
		for _, at := range []sim.Time{50, 100, 200} {
			at := at
			h.eng.At(at, "sample", func() {
				log = append(log, action{h.count(trace.KindNodeJoin), h.count(trace.KindNodeDrain)})
			})
		}
		h.eng.RunUntil(200)
		return log
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical runs diverged: %v vs %v", a, b)
	}
	if a[len(a)-1].drains == 0 {
		t.Fatal("expected at least one scale-in over the idle window")
	}
}
