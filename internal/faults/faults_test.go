package faults

import (
	"reflect"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
)

func TestZeroPlanIsInert(t *testing.T) {
	var p Plan
	if p.Active() {
		t.Fatal("zero plan reports Active")
	}
	if evs := p.Schedule(42, 8); evs != nil {
		t.Fatalf("zero plan scheduled %d events", len(evs))
	}
}

// TestActivePerKind checks that crashes, the one fault kind, activate a
// plan, and that a downtime alone does not.
func TestActivePerKind(t *testing.T) {
	if p := (Plan{CrashRate: 1}); !p.Active() {
		t.Fatalf("plan %+v should be active", p)
	}
	if p := (Plan{MeanDowntime: 60}); p.Active() || p.Schedule(42, 8) != nil {
		t.Fatalf("plan %+v with no crash rate is active", p)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	p := Plan{CrashRate: 6}
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
	p := Plan{CrashRate: 30}
	evs := p.Schedule(7, 16)
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.At > b.At || (a.At == b.At && a.Node >= b.Node) {
			t.Fatalf("events %d/%d out of (At, Node) order: %+v then %+v", i-1, i, a, b)
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

func TestSchedulePayloads(t *testing.T) {
	p := Plan{CrashRate: 20, MeanDowntime: 25}
	evs := p.Schedule(3, 8)
	floored := 0
	for _, ev := range evs {
		if ev.Duration < 20 {
			t.Fatalf("crash downtime %v below the 20 s floor", ev.Duration)
		}
		if ev.Duration == 20 {
			floored++
		}
	}
	if floored == 0 || floored == len(evs) {
		t.Fatalf("%d of %d downtimes at the floor, want some above and some at it", floored, len(evs))
	}
}

// fakeTarget records injector calls and mirrors node up/down state the
// way the driver does.
type fakeTarget struct {
	c     *cluster.Cluster
	calls []string
}

func (f *fakeTarget) CrashNode(id cluster.NodeID) {
	f.c.Node(id).SetDown(true)
	f.calls = append(f.calls, "crash")
}

func (f *fakeTarget) RestoreNode(id cluster.NodeID) {
	f.c.Node(id).SetDown(false)
	f.calls = append(f.calls, "restore")
}

func newInjectorHarness(schedule []Event) (*sim.Engine, *cluster.Cluster, *fakeTarget, *Injector) {
	eng := sim.New()
	c := cluster.Homogeneous(2)
	tgt := &fakeTarget{c: c}
	inj := NewInjector(eng, c, schedule, tgt)
	return eng, c, tgt, inj
}

func TestInjectorCrashThenRestore(t *testing.T) {
	eng, c, tgt, inj := newInjectorHarness([]Event{
		{At: 10, Node: 0, Duration: 30},
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
}

func TestInjectorSkipsDownNode(t *testing.T) {
	// Second crash lands while node 0 is still down: a dead machine
	// cannot crash again.
	eng, _, tgt, inj := newInjectorHarness([]Event{
		{At: 10, Node: 0, Duration: 100},
		{At: 50, Node: 0, Duration: 100},
	})
	inj.Start()
	eng.RunUntil(105) // before the t=110 restore
	if want := []string{"crash"}; !reflect.DeepEqual(tgt.calls, want) {
		t.Fatalf("calls = %v, want %v", tgt.calls, want)
	}
}
