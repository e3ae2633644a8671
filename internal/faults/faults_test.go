package faults

import (
	"reflect"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
)

func crashPlan(rate float64) Plan { return Plan{CrashRate: rate} }

func TestZeroPlanIsInert(t *testing.T) {
	var p Plan
	if p.Active() {
		t.Fatal("zero plan reports Active")
	}
	if evs := p.Schedule(42, 8); evs != nil {
		t.Fatalf("zero plan scheduled %d events", len(evs))
	}
}

func TestActivePerKind(t *testing.T) {
	for _, p := range []Plan{
		{CrashRate: 1},
		{SlowdownRate: 1},
		{PreemptRate: 1},
	} {
		if !p.Active() {
			t.Fatalf("plan %+v should be active", p)
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	p := Plan{CrashRate: 6, SlowdownRate: 4, PreemptRate: 3}
	a := p.Schedule(42, 12)
	b := p.Schedule(42, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (plan, seed, n) produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("expected events at these rates over the default horizon")
	}
	c := p.Schedule(43, 12)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleSorted(t *testing.T) {
	p := Plan{CrashRate: 10, SlowdownRate: 10, PreemptRate: 10}
	evs := p.Schedule(7, 16)
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.At > b.At ||
			(a.At == b.At && a.Node > b.Node) ||
			(a.At == b.At && a.Node == b.Node && a.Kind > b.Kind) {
			t.Fatalf("events %d/%d out of (At, Node, Kind) order: %+v then %+v", i-1, i, a, b)
		}
	}
}

// TestScheduleHorizonAndCap runs one plan into the per-node cap and one
// into the horizon.
func TestScheduleHorizonAndCap(t *testing.T) {
	perNode := func(evs []Event) map[cluster.NodeID]int {
		counts := map[cluster.NodeID]int{}
		for _, ev := range evs {
			if ev.At > horizon {
				t.Fatalf("event at %v beyond horizon %v", ev.At, horizon)
			}
			counts[ev.Node]++
		}
		return counts
	}
	capped := perNode(Plan{CrashRate: 1e6}.Schedule(1, 3))
	for id := cluster.NodeID(0); id < 3; id++ {
		if capped[id] != maxPerNode {
			t.Fatalf("node %d has %d crash events at rate 1e6, want the cap %d", id, capped[id], maxPerNode)
		}
	}
	// At one crash per node-hour, the 4 h horizon ends every stream long
	// before the cap.
	evs := Plan{CrashRate: 1}.Schedule(1, 50)
	for id, n := range perNode(evs) {
		if n >= maxPerNode {
			t.Fatalf("node %d reached the cap (%d events) at rate 1", id, n)
		}
	}
	if last := evs[len(evs)-1].At; last < horizon/2 {
		t.Fatalf("last event at %v, want the streams to run toward the horizon %v", last, horizon)
	}
}

// Enabling a second fault kind must not perturb the first kind's
// timeline: kinds draw from independent label-split streams.
func TestScheduleKindIndependence(t *testing.T) {
	crashes := func(evs []Event) []Event {
		var out []Event
		for _, ev := range evs {
			if ev.Kind == Crash {
				out = append(out, ev)
			}
		}
		return out
	}
	only := crashPlan(8).Schedule(42, 6)
	both := Plan{CrashRate: 8, SlowdownRate: 20}.Schedule(42, 6)
	if !reflect.DeepEqual(crashes(only), crashes(both)) {
		t.Fatal("adding slowdowns changed the crash timeline")
	}
}

func TestSchedulePayloads(t *testing.T) {
	p := Plan{CrashRate: 20, SlowdownRate: 20}
	for _, ev := range p.Schedule(3, 8) {
		switch ev.Kind {
		case Crash:
			if ev.Duration < 20 {
				t.Fatalf("crash downtime %v below the 20 s floor", ev.Duration)
			}
		case Slowdown:
			if ev.Duration < 10 {
				t.Fatalf("slowdown duration %v below the 10 s floor", ev.Duration)
			}
			if ev.Factor < 0.2 || ev.Factor > 0.5 {
				t.Fatalf("slowdown factor %v outside default [0.2, 0.5]", ev.Factor)
			}
		}
	}
}

// fakeTarget records injector calls and mirrors node up/down state the
// way the driver does.
type fakeTarget struct {
	c       *cluster.Cluster
	calls   []string
	preempt bool // return value for PreemptContainer
}

func (f *fakeTarget) CrashNode(id cluster.NodeID) {
	f.c.Node(id).SetDown(true)
	f.calls = append(f.calls, "crash")
}

func (f *fakeTarget) RestoreNode(id cluster.NodeID) {
	f.c.Node(id).SetDown(false)
	f.calls = append(f.calls, "restore")
}

func (f *fakeTarget) PreemptContainer(id cluster.NodeID) bool {
	f.calls = append(f.calls, "preempt")
	return f.preempt
}

func newInjectorHarness(schedule []Event) (*sim.Engine, *cluster.Cluster, *fakeTarget, *Injector) {
	eng := sim.New()
	c := cluster.Homogeneous(2)
	tgt := &fakeTarget{c: c, preempt: true}
	inj := NewInjector(eng, c, schedule, tgt)
	return eng, c, tgt, inj
}

func TestInjectorCrashThenRestore(t *testing.T) {
	eng, c, tgt, inj := newInjectorHarness([]Event{
		{At: 10, Node: 0, Kind: Crash, Duration: 30},
	})
	inj.Start()
	eng.RunUntil(25)
	if !c.Node(0).Down() {
		t.Fatal("node 0 should be down at t=25")
	}
	eng.RunUntil(100)
	if c.Node(0).Down() {
		t.Fatal("node 0 should be restored after 30 s downtime")
	}
	if want := []string{"crash", "restore"}; !reflect.DeepEqual(tgt.calls, want) {
		t.Fatalf("calls = %v, want %v", tgt.calls, want)
	}
	if inj.Injected != 1 {
		t.Fatalf("Injected = %d, want 1", inj.Injected)
	}
}

func TestInjectorSkipsDownNode(t *testing.T) {
	// Second crash lands while node 0 is still down: a dead machine
	// cannot crash again.
	eng, _, tgt, inj := newInjectorHarness([]Event{
		{At: 10, Node: 0, Kind: Crash, Duration: 100},
		{At: 50, Node: 0, Kind: Crash, Duration: 100},
		{At: 60, Node: 0, Kind: Slowdown, Duration: 10, Factor: 0.3},
		{At: 70, Node: 0, Kind: Preempt},
	})
	inj.Start()
	eng.RunUntil(105) // before the t=110 restore
	if want := []string{"crash"}; !reflect.DeepEqual(tgt.calls, want) {
		t.Fatalf("calls = %v, want %v", tgt.calls, want)
	}
	if inj.Injected != 1 {
		t.Fatalf("Injected = %d, want 1 (later faults on the dead node skipped)", inj.Injected)
	}
}

func TestInjectorSlowdownRestoresPrevious(t *testing.T) {
	eng, c, _, inj := newInjectorHarness([]Event{
		{At: 10, Node: 1, Kind: Slowdown, Duration: 20, Factor: 0.25},
	})
	inj.Start()
	eng.RunUntil(15)
	if got := c.Node(1).Interference(); got != 0.25 {
		t.Fatalf("interference during slowdown = %v, want 0.25", got)
	}
	eng.RunUntil(50)
	if got := c.Node(1).Interference(); got != 1.0 {
		t.Fatalf("interference after slowdown = %v, want 1.0 restored", got)
	}
	if inj.Injected != 1 {
		t.Fatalf("Injected = %d, want 1", inj.Injected)
	}
}

func TestInjectorSlowdownYieldsToStronger(t *testing.T) {
	eng, c, _, inj := newInjectorHarness([]Event{
		{At: 10, Node: 0, Kind: Slowdown, Duration: 20, Factor: 0.5},
	})
	c.Node(0).SetInterference(0.1) // an interferer already slows it harder
	inj.Start()
	eng.RunUntil(15)
	if got := c.Node(0).Interference(); got != 0.1 {
		t.Fatalf("weaker slowdown overrode stronger interference: %v", got)
	}
	if inj.Injected != 0 {
		t.Fatalf("Injected = %d, want 0", inj.Injected)
	}
}

func TestInjectorSlowdownRecoverSkipsIfChanged(t *testing.T) {
	eng, c, _, inj := newInjectorHarness([]Event{
		{At: 10, Node: 0, Kind: Slowdown, Duration: 20, Factor: 0.3},
	})
	inj.Start()
	eng.RunUntil(15)
	c.Node(0).SetInterference(0.05) // external change mid-slowdown
	eng.RunUntil(50)
	if got := c.Node(0).Interference(); got != 0.05 {
		t.Fatalf("recover overwrote an external interference change: %v", got)
	}
}

func TestInjectorPreemptCountsOnlyHits(t *testing.T) {
	eng, _, tgt, inj := newInjectorHarness([]Event{
		{At: 5, Node: 0, Kind: Preempt},
		{At: 6, Node: 0, Kind: Preempt},
	})
	tgt.preempt = false // nothing running
	inj.Start()
	eng.RunUntil(10)
	if len(tgt.calls) != 2 {
		t.Fatalf("preempt attempts = %d, want 2", len(tgt.calls))
	}
	if inj.Injected != 0 {
		t.Fatalf("Injected = %d, want 0 (no container was running)", inj.Injected)
	}
}
