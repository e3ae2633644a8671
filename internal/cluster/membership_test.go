package cluster

import (
	"slices"
	"testing"
)

// refSortedSpeeds is the sorted member-speed table LATE built for itself
// before the cluster shared one: every node that is not an offline spare,
// down or not, sorted ascending.
func refSortedSpeeds(c *Cluster) []float64 {
	var speeds []float64
	for _, n := range c.Nodes {
		if !n.Offline() {
			speeds = append(speeds, n.Speed())
		}
	}
	slices.Sort(speeds)
	return speeds
}

// TestSpeedEpochTransitions drives every transition that can change a
// member's speed or the member set — interference, crash and restore,
// join and release — and checks that each bumps SpeedEpoch while its
// no-op form does not, and that SortedSpeeds follows the epoch: it
// matches the reference table after every step, rebuilding only when the
// epoch moved.
func TestSpeedEpochTransitions(t *testing.T) {
	c := NewCluster("t", []NodeSpec{{BaseSpeed: 1}, {BaseSpeed: 2}, {BaseSpeed: 3}})
	spares := c.AddSpares(2, NodeSpec{BaseSpeed: 5})
	slower := c.AddSpares(1, NodeSpec{BaseSpeed: 4})[0]
	steps := []struct {
		name  string
		apply func()
		bumps bool
	}{
		{"interfere", func() { c.Node(2).SetInterference(0.25) }, true},
		{"interfere again", func() { c.Node(2).SetInterference(0.25) }, false},
		{"crash", func() { c.Node(1).SetDown(true) }, true},
		{"crash again", func() { c.Node(1).SetDown(true) }, false},
		{"join a spare", func() { c.JoinNode(spares[0], 0) }, true},
		{"join it again", func() { c.JoinNode(spares[0], 0) }, false},
		{"join a slower spare", func() { c.JoinNode(slower, 0) }, true},
		{"drain it", func() { c.StartDrain(slower) }, false},
		{"restore", func() { c.Node(1).SetDown(false) }, true},
		{"release", func() { c.ReleaseNode(0, 0) }, true},
		{"release again", func() { c.ReleaseNode(0, 0) }, false},
		{"interfere a spare", func() { c.Node(spares[1]).SetInterference(0.5) }, true},
		{"clear interference", func() { c.Node(2).SetInterference(1) }, true},
	}
	prev := c.SortedSpeeds()
	if want := refSortedSpeeds(c); !slices.Equal(prev, want) {
		t.Fatalf("initial SortedSpeeds = %v, want %v", prev, want)
	}
	for _, s := range steps {
		epoch := c.SpeedEpoch()
		s.apply()
		if bumped := c.SpeedEpoch() != epoch; bumped != s.bumps {
			t.Fatalf("%s: epoch bumped = %v, want %v", s.name, bumped, s.bumps)
		}
		got := c.SortedSpeeds()
		if want := refSortedSpeeds(c); !slices.Equal(got, want) {
			t.Fatalf("%s: SortedSpeeds = %v, want %v", s.name, got, want)
		}
		if !s.bumps && &got[0] != &prev[0] {
			t.Fatalf("%s: SortedSpeeds rebuilt its table with the epoch unchanged", s.name)
		}
		prev = got
	}
	// The offline spare's interference moved the epoch but no member
	// speed; node 1, crashed and restored, counted throughout.
	if want := []float64{2, 3, 4, 5}; !slices.Equal(prev, want) {
		t.Fatalf("final SortedSpeeds = %v, want %v", prev, want)
	}
}

// TestMembership checks AddSpares, JoinNode, StartDrain and ReleaseNode
// against the member list, the live size, the slot total and each
// node's flags.
func TestMembership(t *testing.T) {
	c := NewCluster("t", []NodeSpec{{Slots: 3}, {}})
	if ids := c.AddSpares(0, NodeSpec{}); ids != nil {
		t.Fatalf("AddSpares(0) = %v, want nil", ids)
	}
	spares := c.AddSpares(2, NodeSpec{Name: "s", Class: "spot"})
	named := c.AddSpares(1, NodeSpec{})
	if !slices.Equal(spares, []NodeID{2, 3}) || !slices.Equal(named, []NodeID{4}) {
		t.Fatalf("spare IDs %v and %v, want [2 3] and [4]", spares, named)
	}
	for _, id := range []NodeID{2, 3, 4} {
		n := c.Node(id)
		if !n.Offline() || !n.Down() || n.Slots != 2 || n.BaseSpeed != 1 {
			t.Fatalf("spare %d: offline %v, down %v, %d slots, speed %v", id, n.Offline(), n.Down(), n.Slots, n.BaseSpeed)
		}
	}
	if got := []string{c.Node(2).Name, c.Node(3).Name, c.Node(4).Name}; !slices.Equal(got, []string{"s-00", "s-01", "spare-00"}) {
		t.Fatalf("spare names %v", got)
	}
	check := func(step string, members []NodeID, slots int) {
		t.Helper()
		var got []NodeID
		for _, n := range c.Members() {
			got = append(got, n.ID)
		}
		if !slices.Equal(got, members) || c.LiveSize() != len(members) || c.TotalSlots() != slots || c.Size() != 5 {
			t.Fatalf("%s: members %v (live %d), %d slots, size %d; want members %v, %d slots, size 5",
				step, got, c.LiveSize(), c.TotalSlots(), c.Size(), members, slots)
		}
	}
	check("initial", []NodeID{0, 1}, 5)
	held := c.Members()
	c.JoinNode(3, 0)
	check("join 3", []NodeID{0, 1, 3}, 7)
	c.JoinNode(2, 0)
	check("join 2", []NodeID{0, 1, 2, 3}, 9)
	// A drain keeps the member until its release ends it.
	c.StartDrain(4)
	c.StartDrain(0)
	check("drain 0", []NodeID{0, 1, 2, 3}, 9)
	if c.Node(4).Draining() || !c.Node(0).Draining() || c.Node(0).Down() {
		t.Fatalf("drain flags: offline spare %v, member %v (down %v)",
			c.Node(4).Draining(), c.Node(0).Draining(), c.Node(0).Down())
	}
	c.ReleaseNode(0, 0)
	check("release 0", []NodeID{1, 2, 3}, 6)
	if n := c.Node(0); !n.Offline() || !n.Down() || n.Draining() {
		t.Fatalf("released node: offline %v, down %v, draining %v", n.Offline(), n.Down(), n.Draining())
	}
	if len(held) != 2 || held[0].ID != 0 || held[1].ID != 1 {
		t.Fatal("a membership change edited a member list already returned")
	}
	// A crash is not a membership change.
	c.Node(1).SetDown(true)
	check("crash 1", []NodeID{1, 2, 3}, 6)
	if n := c.Node(1); !n.Down() || n.Offline() {
		t.Fatalf("crashed member: down %v, offline %v", n.Down(), n.Offline())
	}
}

// TestClusterAccounting bills four base nodes for the whole span and a
// spare for its one completed joined interval, 100–230 s.
func TestClusterAccounting(t *testing.T) {
	c := Homogeneous(4)
	spares := c.AddSpares(2, NodeSpec{Slots: 3})
	c.JoinNode(spares[0], 100)
	c.StartDrain(spares[0])
	c.ReleaseNode(spares[0], 230)
	if got, want := c.NodeHours(1000), (4*1000.0+130)/3600; got != want {
		t.Fatalf("NodeHours = %v, want %v", got, want)
	}
	if got, want := c.SlotSeconds(1000), float64(4*2)*1000+130*3; got != want {
		t.Fatalf("SlotSeconds = %v, want %v", got, want)
	}
}

// TestClusterAccountingOpenInterval counts a spare still joined at the
// horizon up to "until", after the intervals it already completed.
func TestClusterAccountingOpenInterval(t *testing.T) {
	c := Homogeneous(4)
	spare := c.AddSpares(1, NodeSpec{})[0]
	c.JoinNode(spare, 50)
	c.ReleaseNode(spare, 60)
	c.JoinNode(spare, 100)
	if got, want := c.NodeHours(500), (4*500.0+10+400)/3600; got != want {
		t.Fatalf("NodeHours = %v, want %v", got, want)
	}
	if got, want := c.SlotSeconds(500), float64(4*2)*500+10*2+400*2; got != want {
		t.Fatalf("SlotSeconds = %v, want %v", got, want)
	}
}

func TestAddSparesRejectsNegativeSpec(t *testing.T) {
	c := NewCluster("t", []NodeSpec{{}})
	defer func() {
		if recover() == nil {
			t.Error("AddSpares with negative slots did not panic")
		}
	}()
	c.AddSpares(1, NodeSpec{Slots: -1})
}

func TestPaperProfiles(t *testing.T) {
	h := HomogeneousPaper(3)
	if h.Size() != 3 || h.TotalSlots() != 3*PaperSlots || h.Node(2).Name != "homo-02" {
		t.Fatalf("HomogeneousPaper(3): %d nodes, %d slots, node 2 %q", h.Size(), h.TotalSlots(), h.Node(2).Name)
	}
	het := Heterogeneous6()
	if het.Size() != 6 || het.TotalSlots() != 6*PaperSlots {
		t.Fatalf("Heterogeneous6: %d nodes, %d slots", het.Size(), het.TotalSlots())
	}
	if speeds := het.SortedSpeeds(); speeds[0] != speedOptiplex || speeds[5] != speedT430 {
		t.Fatalf("Heterogeneous6 speeds %v, want %v to %v", speeds, speedOptiplex, speedT430)
	}
}
