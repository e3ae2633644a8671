package net

import (
	"fmt"
	"math"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
)

// testCluster builds n uniform nodes with the given topology attached.
func testCluster(n int, topo *cluster.TopologySpec) *cluster.Cluster {
	specs := make([]cluster.NodeSpec, n)
	for i := range specs {
		specs[i] = cluster.NodeSpec{Name: fmt.Sprintf("net-%03d", i)}
	}
	c := cluster.NewCluster("net-test", specs)
	c.NetBW = 100 // 100 MB/s host links keep the arithmetic legible
	c.Topology = topo
	return c
}

func mustFabric(t *testing.T, eng *sim.Engine, c *cluster.Cluster) *Fabric {
	t.Helper()
	f, err := New(eng, c)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEqualShareOnBottleneck pins the base case: two same-rack senders
// into one receiver split the receiver's access link evenly, and a third
// flow to a different receiver is unaffected.
func TestEqualShareOnBottleneck(t *testing.T) {
	eng := sim.New()
	c := testCluster(8, &cluster.TopologySpec{HostsPerRack: 4})
	f := mustFabric(t, eng, c)
	hostBW := f.HostBW()

	var fa, fb, fc *Flow
	eng.After(0, "start", func() {
		fa = f.StartFlow(1, 0, 100*MB, "a", func() {})
		fb = f.StartFlow(2, 0, 100*MB, "b", func() {})
		fc = f.StartFlow(3, 4, 100*MB, "c", func() {}) // cross-rack, uncontended
	})
	eng.RunUntil(0)
	if got, want := fa.Rate(), hostBW/2; math.Abs(got-want) > 1 {
		t.Errorf("flow a rate = %v, want %v (half the shared downlink)", got, want)
	}
	if got, want := fb.Rate(), hostBW/2; math.Abs(got-want) > 1 {
		t.Errorf("flow b rate = %v, want %v", got, want)
	}
	if got, want := fc.Rate(), hostBW; math.Abs(got-want) > 1 {
		t.Errorf("flow c rate = %v, want %v (uncontended)", got, want)
	}
	if !fc.cross {
		t.Errorf("flow c should be cross-rack")
	}
	// When a finishes, b should absorb the freed bandwidth.
	eng.Run()
	if !fa.finished || !fb.finished || !fc.finished {
		t.Fatalf("flows did not all finish: %v %v %v", fa.finished, fb.finished, fc.finished)
	}
}

// TestOversubscribedRackDownlink checks that the ToR downlink, not the
// host links, bottlenecks cross-rack fan-in under oversubscription.
func TestOversubscribedRackDownlink(t *testing.T) {
	eng := sim.New()
	// 2 racks × 4 hosts, 4:1 oversub: rack links carry 4×100/4 = 100 MB/s.
	c := testCluster(8, &cluster.TopologySpec{HostsPerRack: 4, Oversub: 4})
	f := mustFabric(t, eng, c)
	if got, want := f.RackBW(), 100.0*MB; math.Abs(got-want) > 1 {
		t.Fatalf("rack BW = %v, want %v", got, want)
	}
	// Four cross-rack flows into distinct rack-0 hosts: each host downlink
	// has one flow (100 MB/s), but rack0-down carries all four → 25 each.
	var flows []*Flow
	eng.After(0, "start", func() {
		for i := 0; i < 4; i++ {
			flows = append(flows, f.StartFlow(cluster.NodeID(4+i), cluster.NodeID(i), 100*MB, "x", func() {}))
		}
	})
	eng.RunUntil(0)
	for i, fl := range flows {
		if got, want := fl.Rate(), f.RackBW()/4; math.Abs(got-want) > 1 {
			t.Errorf("flow %d rate = %v, want %v (rack downlink share)", i, got, want)
		}
	}
	eng.Run()
	if got := f.CrossRackBytes(); got != 4*100*MB {
		t.Errorf("cross-rack bytes = %d, want %d", got, 4*100*MB)
	}
}

// TestCancelReturnsTransferred checks pro-rata accounting on early
// cancellation and that freed bandwidth reflows to survivors.
func TestCancelReturnsTransferred(t *testing.T) {
	eng := sim.New()
	c := testCluster(4, &cluster.TopologySpec{HostsPerRack: 4})
	f := mustFabric(t, eng, c)
	var fa, fb *Flow
	eng.After(0, "start", func() {
		fa = f.StartFlow(1, 0, 200*MB, "a", func() {})
		fb = f.StartFlow(2, 0, 200*MB, "b", func() { t.Error("canceled flow must not complete") })
	})
	// Both run at 50 MB/s; cancel b after 1s → 50 MB moved.
	eng.After(1, "cancel", func() {
		got := f.Cancel(fb)
		if want := int64(50 * MB); got < want-1 || got > want+1 {
			t.Errorf("Cancel returned %d bytes, want ~%d", got, want)
		}
		if f.Cancel(fb) != 0 {
			t.Error("double Cancel must return 0")
		}
	})
	end := eng.Run()
	// a: 1s at 50 MB/s + 150 MB at 100 MB/s = 2.5s.
	if math.Abs(float64(end)-2.5) > 1e-9 {
		t.Errorf("final time = %v, want 2.5", end)
	}
	if !fa.finished {
		t.Error("flow a did not finish")
	}
}

// TestMaxMinProperty is the fairness property test: under random flow
// churn, (a) no link's rate sum exceeds its capacity, and (b) every flow
// is bottlenecked — some link on its path is saturated and carries no
// flow with a higher rate. (a)+(b) is the standard characterization of
// the max-min fair allocation.
func TestMaxMinProperty(t *testing.T) {
	const n = 24
	eng := sim.New()
	c := testCluster(n, &cluster.TopologySpec{HostsPerRack: 6, Oversub: 4})
	f := mustFabric(t, eng, c)
	rng := randutil.New(7)

	check := func(at sim.Time) {
		if len(f.active) == 0 {
			return
		}
		rateSum := make(map[int32]float64)
		maxRate := make(map[int32]float64)
		for _, fl := range f.active {
			for i := 0; i < fl.npath; i++ {
				li := fl.path[i]
				rateSum[li] += fl.rate
				if fl.rate > maxRate[li] {
					maxRate[li] = fl.rate
				}
			}
		}
		const eps = 1e-6
		for li, sum := range rateSum {
			if cap := f.links[li].cap; sum > cap*(1+eps) {
				t.Fatalf("t=%v: link %d oversubscribed: rate sum %v > cap %v", at, li, sum, cap)
			}
		}
		for _, fl := range f.active {
			bottlenecked := false
			for i := 0; i < fl.npath; i++ {
				li := fl.path[i]
				saturated := rateSum[li] >= f.links[li].cap*(1-eps)
				if saturated && fl.rate >= maxRate[li]*(1-eps) {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				t.Fatalf("t=%v: flow %d (rate %v) has no saturated max-rate link on its path",
					at, fl.id, fl.rate)
			}
		}
	}

	// Churn: 60 staggered flows with random endpoints and sizes; verify
	// the invariant after every start and at interior instants.
	for i := 0; i < 60; i++ {
		at := sim.Time(rng.Float64() * 20)
		eng.At(at, "churn-start", func() {
			src := cluster.NodeID(rng.Intn(n))
			dst := cluster.NodeID(rng.Intn(n))
			for dst == src {
				dst = cluster.NodeID(rng.Intn(n))
			}
			bytes := int64(1+rng.Intn(400)) * MB
			if rng.Float64() < 0.3 {
				f.StartAggFlow(AllRemoteRacks, dst, bytes, "agg", func() {})
			} else {
				f.StartFlow(src, dst, bytes, "p2p", func() {})
			}
			check(eng.Now())
		})
	}
	for i := 1; i <= 40; i++ {
		at := sim.Time(float64(i))
		eng.At(at, "churn-check", func() { check(eng.Now()) })
	}
	eng.Run()
	if len(f.active) != 0 {
		t.Fatalf("%d flows still active after drain", len(f.active))
	}
}

// TestValidation rejects geometries that would divide transfer times to
// +Inf/NaN: zero rack width, non-positive host bandwidth, negative
// oversubscription.
func TestValidation(t *testing.T) {
	cases := []struct {
		name  string
		netBW float64
		topo  cluster.TopologySpec
	}{
		{"zero-hosts-per-rack", 100, cluster.TopologySpec{HostsPerRack: 0}},
		{"zero-host-bw", 0, cluster.TopologySpec{HostsPerRack: 4}},
		{"negative-host-bw", 100, cluster.TopologySpec{HostsPerRack: 4, HostBW: -1}},
		{"negative-oversub", 100, cluster.TopologySpec{HostsPerRack: 4, Oversub: -2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster(8, &tc.topo)
			c.NetBW = tc.netBW
			if _, err := New(sim.New(), c); err == nil {
				t.Errorf("New accepted invalid topology %+v (NetBW=%v)", tc.topo, tc.netBW)
			}
		})
	}
}
