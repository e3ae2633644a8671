package elastic

import (
	"reflect"
	"testing"

	"flexmap/internal/cluster"
)

func churnPlan(spares int) Plan {
	return Plan{Spares: spares, JoinsPerHour: 30, LeavesPerHour: 20, SpotFraction: 0.3}
}

// slowChurnPlan cycles about ten times per spare in the 4 h horizon, so
// the horizon, not the per-spare cap, ends each stream.
func slowChurnPlan(spares int) Plan {
	return Plan{Spares: spares, JoinsPerHour: 6, LeavesPerHour: 4, SpotFraction: 0.3}
}

func spareIDs(n int) []cluster.NodeID {
	c := cluster.Homogeneous(4)
	return c.AddSpares(n, cluster.NodeSpec{})
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Join: "join", Drain: "drain", Spot: "spot", Kind(9): "kind-9"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestZeroPlanIsInert(t *testing.T) {
	var p Plan
	if p.Active() {
		t.Fatal("zero plan reports Active")
	}
	if evs := p.Schedule(42, spareIDs(4)); evs != nil {
		t.Fatalf("zero plan scheduled %d events", len(evs))
	}
}

func TestActiveVariants(t *testing.T) {
	for _, p := range []Plan{
		{Spares: 1, JoinsPerHour: 1},
		{Spares: 1, Script: []Event{{At: 10, Node: 4, Kind: Join}}},
		{Spares: 1, Autoscale: &Autoscaler{}},
	} {
		if !p.Active() {
			t.Fatalf("plan %+v should be active", p)
		}
	}
	// A plan with no spares has nothing to change, whatever its knobs.
	if (Plan{JoinsPerHour: 10, Autoscale: &Autoscaler{}}).Active() {
		t.Fatal("spare-less plan reports Active")
	}
}

func TestNotice(t *testing.T) {
	p := Plan{Notice: 100, SpotNotice: 25}
	if got := p.notice(Drain); got != 100 {
		t.Fatalf("notice(Drain) = %v, want 100", got)
	}
	if got := p.notice(Spot); got != 25 {
		t.Fatalf("notice(Spot) = %v, want 25", got)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	p := churnPlan(4)
	ids := spareIDs(4)
	a := p.Schedule(42, ids)
	b := p.Schedule(42, ids)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (plan, seed, spares) produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("expected events at these rates over the default horizon")
	}
	c := p.Schedule(43, ids)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleSorted(t *testing.T) {
	evs := churnPlan(6).Schedule(7, spareIDs(6))
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.At > b.At ||
			(a.At == b.At && a.Node > b.Node) ||
			(a.At == b.At && a.Node == b.Node && a.Kind > b.Kind) {
			t.Fatalf("events %d/%d out of (At, Node, Kind) order: %+v then %+v", i-1, i, a, b)
		}
	}
}

// A spare's timeline must be a legal join/leave/join/… alternation
// starting offline, and every event must stay within the horizon, which
// ends the streams before the per-spare cap.
func TestScheduleAlternatesPerNode(t *testing.T) {
	evs := slowChurnPlan(4).Schedule(11, spareIDs(4))
	perNode := map[cluster.NodeID]int{}
	for _, ev := range evs {
		perNode[ev.Node]++
	}
	for id, n := range perNode {
		if n >= maxPerNode {
			t.Fatalf("node %d reached the cap (%d events); the horizon should end its stream", id, n)
		}
	}
	if last := evs[len(evs)-1].At; last < horizon/2 {
		t.Fatalf("last event at %v, want the streams to run toward the horizon %v", last, horizon)
	}
	joined := map[cluster.NodeID]bool{}
	for _, ev := range evs {
		if ev.At > horizon {
			t.Fatalf("event at %v beyond horizon %v", ev.At, horizon)
		}
		if ev.Kind == Join {
			if joined[ev.Node] {
				t.Fatalf("node %d joins twice in a row", ev.Node)
			}
			joined[ev.Node] = true
		} else {
			if !joined[ev.Node] {
				t.Fatalf("node %d leaves while offline", ev.Node)
			}
			joined[ev.Node] = false
		}
	}
}

func TestScheduleMaxPerNodeCap(t *testing.T) {
	p := Plan{Spares: 2, JoinsPerHour: 1e6, LeavesPerHour: 1e6}
	ids := spareIDs(2)
	perNode := map[cluster.NodeID]int{}
	for _, ev := range p.Schedule(1, ids) {
		perNode[ev.Node]++
	}
	for _, id := range ids {
		if perNode[id] != maxPerNode {
			t.Fatalf("node %d has %d events at rate 1e6, want the cap %d", id, perNode[id], maxPerNode)
		}
	}
}

// Per-node streams are split by DeriveSeed: one spare's timeline must
// not depend on how many other spares exist.
func TestScheduleNodeIndependence(t *testing.T) {
	p := churnPlan(2)
	ids := spareIDs(4)
	only := func(evs []Event, id cluster.NodeID) []Event {
		var out []Event
		for _, ev := range evs {
			if ev.Node == id {
				out = append(out, ev)
			}
		}
		return out
	}
	two := p.Schedule(42, ids[:2])
	four := churnPlan(4).Schedule(42, ids)
	for _, id := range ids[:2] {
		if !reflect.DeepEqual(only(two, id), only(four, id)) {
			t.Fatalf("adding spares changed node %d's timeline", id)
		}
	}
}

func TestScheduleScriptMerged(t *testing.T) {
	ids := spareIDs(2)
	script := []Event{
		{At: 500, Node: ids[1], Kind: Drain},
		{At: 50, Node: ids[1], Kind: Join},
	}
	p := Plan{Spares: 2, Script: script}
	evs := p.Schedule(42, ids)
	want := []Event{{At: 50, Node: ids[1], Kind: Join}, {At: 500, Node: ids[1], Kind: Drain}}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("script-only schedule = %+v, want sorted %+v", evs, want)
	}
	// Script events merge with drawn churn rather than replacing it.
	churn := churnPlan(2)
	churn.Script = script
	merged := churn.Schedule(42, ids)
	found := 0
	for _, ev := range merged {
		for _, s := range script {
			if ev == s {
				found++
			}
		}
	}
	if found != len(script) {
		t.Fatalf("found %d of %d script events in merged schedule", found, len(script))
	}
	if len(merged) <= len(script) {
		t.Fatal("merged schedule carries no drawn churn events")
	}
}

func TestScheduleJoinsForever(t *testing.T) {
	// LeavesPerHour 0: each spare joins once and stays.
	p := Plan{Spares: 3, JoinsPerHour: 50}
	ids := spareIDs(3)
	evs := p.Schedule(9, ids)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want one join per spare", len(evs))
	}
	for _, ev := range evs {
		if ev.Kind != Join {
			t.Fatalf("unexpected %v event with no leave rate", ev.Kind)
		}
	}
}
