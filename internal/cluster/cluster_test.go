package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"flexmap/internal/randutil"
	"flexmap/internal/sim"
)

func TestNewClusterDefaults(t *testing.T) {
	c := NewCluster("t", []NodeSpec{{}, {BaseSpeed: 2, Slots: 4, Name: "big"}})
	if c.Size() != 2 {
		t.Fatalf("Size = %d, want 2", c.Size())
	}
	n0 := c.Node(0)
	if n0.BaseSpeed != 1.0 || n0.Slots != 2 {
		t.Fatalf("defaults not applied: speed=%v slots=%d", n0.BaseSpeed, n0.Slots)
	}
	if n0.Name != "node-00" {
		t.Fatalf("default name = %q", n0.Name)
	}
	n1 := c.Node(1)
	if n1.BaseSpeed != 2 || n1.Slots != 4 || n1.Name != "big" {
		t.Fatalf("explicit spec not honored: %+v", n1)
	}
	if c.TotalSlots() != 6 {
		t.Fatalf("TotalSlots = %d, want 6", c.TotalSlots())
	}
}

func TestUnknownNodePanics(t *testing.T) {
	c := NewCluster("t", []NodeSpec{{}})
	defer func() {
		if recover() == nil {
			t.Error("Node(5) did not panic")
		}
	}()
	c.Node(5)
}

func TestSpeedAndInterference(t *testing.T) {
	c := NewCluster("t", []NodeSpec{{BaseSpeed: 2}})
	n := c.Node(0)
	if n.Speed() != 2 {
		t.Fatalf("initial speed = %v, want 2", n.Speed())
	}
	var notified int
	c.OnSpeedChange(func(*Node) { notified++ })
	n.SetInterference(0.5)
	if n.Speed() != 1 {
		t.Fatalf("speed after interference = %v, want 1", n.Speed())
	}
	if notified != 1 {
		t.Fatalf("notified %d times, want 1", notified)
	}
	n.SetInterference(0.5) // no change — no notification
	if notified != 1 {
		t.Fatalf("redundant SetInterference called the speed hook")
	}
	defer func() {
		if recover() == nil {
			t.Error("second OnSpeedChange did not panic")
		}
	}()
	c.OnSpeedChange(func(*Node) {})
}

func TestSetInterferenceRejectsBadValues(t *testing.T) {
	n := NewCluster("t", []NodeSpec{{}}).Node(0)
	for _, bad := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetInterference(%v) did not panic", bad)
				}
			}()
			n.SetInterference(bad)
		}()
	}
}

func TestTopologyValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		spec  TopologySpec
		netBW float64
		ok    bool
	}{
		{TopologySpec{HostsPerRack: 4}, 1250, true},
		{TopologySpec{HostsPerRack: 4, Oversub: 4}, 1250, true},
		{TopologySpec{HostsPerRack: 0}, 1250, false},
		{TopologySpec{HostsPerRack: 4}, 0, false},
		{TopologySpec{HostsPerRack: 4}, nan, false},
		{TopologySpec{HostsPerRack: 4, Oversub: -1}, 1250, false},
		{TopologySpec{HostsPerRack: 4, Oversub: nan}, 1250, false},
		{TopologySpec{HostsPerRack: 4, Oversub: inf}, 1250, false},
		{TopologySpec{HostsPerRack: 4, Oversub: 1e-6}, 1250, true},
		// A subnormal ratio makes the rack link infinite in MB/s already;
		// 1e-303 is finite in MB/s and overflows only in bytes/s.
		{TopologySpec{HostsPerRack: 4, Oversub: 1e-320}, 1250, false},
		{TopologySpec{HostsPerRack: 4, Oversub: 1e-303}, 1250, false},
		// A host link finite in MB/s that overflows in bytes/s.
		{TopologySpec{HostsPerRack: 4}, 1e305, false},
	} {
		if err := tc.spec.Validate(tc.netBW); (err == nil) != tc.ok {
			t.Errorf("%+v.Validate(%v) = %v, want ok=%v", tc.spec, tc.netBW, err, tc.ok)
		}
	}
}

// speedRatio is the fastest node's effective speed over the slowest's.
func speedRatio(c *Cluster) float64 {
	lo, hi := c.Nodes[0].Speed(), c.Nodes[0].Speed()
	for _, n := range c.Nodes {
		lo, hi = min(lo, n.Speed()), max(hi, n.Speed())
	}
	return hi / lo
}

func TestPhysical12Profile(t *testing.T) {
	c := Physical12()
	if c.Size() != 12 {
		t.Fatalf("physical cluster has %d nodes, want 12", c.Size())
	}
	classes := map[string]int{}
	for _, n := range c.Nodes {
		classes[n.Class]++
	}
	want := map[string]int{
		"PowerEdge T320": 2, "PowerEdge T430": 1,
		"PowerEdge T110": 2, "OPTIPLEX 990": 7,
	}
	for class, count := range want {
		if classes[class] != count {
			t.Errorf("class %q: %d nodes, want %d", class, classes[class], count)
		}
	}
	// Raw speed ratio fastest:slowest ≈ 2.8, calibrated so the slowest
	// 64 MB map *task* runs ≈2× longer than the fastest (Fig. 1a) once
	// the ~2 s fixed overhead is added.
	ratio := speedRatio(c)
	if ratio < 2.5 || ratio > 3.1 {
		t.Errorf("speed ratio = %v, want ≈2.8", ratio)
	}
}

func TestVirtual20Interference(t *testing.T) {
	c, inf := Virtual20(1)
	if c.Size() != 20 {
		t.Fatalf("virtual cluster has %d nodes, want 20", c.Size())
	}
	eng := sim.New()
	inf.Start(eng)
	eng.RunUntil(61) // initial roll + one re-roll

	interfered := 0
	for _, n := range c.Nodes {
		if n.Interference() < 1 {
			interfered++
			if n.Interference() < 0.2-1e-9 || n.Interference() > 0.5+1e-9 {
				t.Errorf("interference %v out of [0.2,0.5]", n.Interference())
			}
		}
	}
	// With 20% of 20 nodes interfered, expect a handful; exact count is
	// seed-dependent but must not be all or none across several rolls.
	if interfered == 20 {
		t.Error("all nodes interfered; expected a minority")
	}
}

func TestVirtual20Deterministic(t *testing.T) {
	run := func() []float64 {
		c, inf := Virtual20(42)
		eng := sim.New()
		inf.Start(eng)
		eng.RunUntil(200)
		out := make([]float64, c.Size())
		for i, n := range c.Nodes {
			out[i] = n.Interference()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at node %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMultiTenant40Fractions(t *testing.T) {
	for _, frac := range []float64{0.05, 0.10, 0.20, 0.40} {
		c, inf := MultiTenant40(frac, 7)
		eng := sim.New()
		inf.Start(eng)
		eng.Run()
		slow := 0
		for _, n := range c.Nodes {
			if n.Interference() < 1 {
				slow++
			}
		}
		want := int(40*frac + 0.5)
		if slow != want {
			t.Errorf("fraction %v: %d slow nodes, want %d", frac, slow, want)
		}
	}
}

func TestMultiTenantBadFractionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("fraction 1.5 did not panic")
		}
	}()
	MultiTenant40(1.5, 1)
}

func TestMotivating3Capacities(t *testing.T) {
	c := Motivating3()
	if c.Size() != 3 {
		t.Fatalf("size = %d", c.Size())
	}
	if r := speedRatio(c); r != 3 {
		t.Fatalf("capacity ratio = %v, want 3", r)
	}
}

func TestHomogeneousUniform(t *testing.T) {
	c := Homogeneous(6)
	if c.Size() != 6 {
		t.Fatalf("size = %d", c.Size())
	}
	if speedRatio(c) != 1 {
		t.Fatal("homogeneous cluster has speed spread")
	}
}

// Property: random interference keeps exactly round(20% × N) nodes
// interfered through every drift period, each at a multiplier in
// [minInterference, maxInterference], the rest clear, and effective
// speed ≤ base speed.
func TestPropertyInterferenceBounds(t *testing.T) {
	f := func(seed int64, size, rolls uint8) bool {
		c := Homogeneous(int(size%40) + 1)
		inf := &RandomInterference{Cluster: c, RNG: randutil.New(seed)}
		eng := sim.New()
		inf.Start(eng)
		eng.RunUntil(sim.Time(interferencePeriod) * sim.Time(rolls%20+1))
		interfered := 0
		for _, n := range c.Nodes {
			m := n.Interference()
			if m < 1 {
				interfered++
				if m < minInterference || m > maxInterference {
					return false
				}
			} else if m != 1 {
				return false
			}
			if n.Speed() > n.BaseSpeed+1e-12 {
				return false
			}
		}
		return interfered == int(interferedFraction*float64(c.Size())+0.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeSpecPanics(t *testing.T) {
	for _, spec := range []NodeSpec{{BaseSpeed: -1}, {Slots: -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %+v did not panic", spec)
				}
			}()
			NewCluster("bad", []NodeSpec{spec})
		}()
	}
}
