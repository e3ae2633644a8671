package net

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
	hostBW := f.hostBW

	var fa, fb, fc *Flow
	eng.After(0, "start", func() {
		fa = f.StartFlow(1, 0, 100*MB, "a", func() {})
		fb = f.StartFlow(2, 0, 100*MB, "b", func() {})
		fc = f.StartFlow(3, 4, 100*MB, "c", func() {}) // cross-rack, uncontended
	})
	eng.RunUntil(0)
	if got, want := fa.rate, hostBW/2; math.Abs(got-want) > 1 {
		t.Errorf("flow a rate = %v, want %v (half the shared downlink)", got, want)
	}
	if got, want := fb.rate, hostBW/2; math.Abs(got-want) > 1 {
		t.Errorf("flow b rate = %v, want %v", got, want)
	}
	if got, want := fc.rate, hostBW; math.Abs(got-want) > 1 {
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
		if got, want := fl.rate, f.RackBW()/4; math.Abs(got-want) > 1 {
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

// referenceRates is the fabric's original from-scratch progressive
// filling, kept as the model the incremental fill must match bit for bit.
// paths holds the active flows' links in start order. It returns each
// flow's rate and each link's remaining capacity after the fill (zero for
// links no flow crosses).
func referenceRates(caps []float64, paths [][]int32) (rates, capRem []float64) {
	capRem = make([]float64, len(caps))
	cnt := make([]int32, len(caps))
	var touched []int32
	for _, p := range paths {
		for _, li := range p {
			if cnt[li] == 0 {
				capRem[li] = caps[li]
				touched = append(touched, li)
			}
			cnt[li]++
		}
	}
	rates = make([]float64, len(paths))
	for i := range rates {
		rates[i] = -1
	}
	for unfrozen := len(paths); unfrozen > 0; {
		best := int32(-1)
		var bestShare float64
		for _, li := range touched {
			if cnt[li] == 0 {
				continue
			}
			share := capRem[li] / float64(cnt[li])
			if best < 0 || share < bestShare || (share == bestShare && li < best) {
				best, bestShare = li, share
			}
		}
		if bestShare <= 0 {
			bestShare = 1e-9
		}
		for i, p := range paths {
			if rates[i] >= 0 || !slices.Contains(p, best) {
				continue
			}
			rates[i] = bestShare
			unfrozen--
			for _, li := range p {
				cnt[li]--
				capRem[li] -= bestShare
				if capRem[li] < 0 {
					capRem[li] = 0
				}
			}
		}
	}
	return rates, capRem
}

// churnGeom is one geometry a churn script may run on.
type churnGeom struct {
	topo  cluster.TopologySpec
	racks int
	pace  sim.Time // divides the script's time gaps
}

// name labels a geometry's subtests. The three-rack cells keep the names
// they had before the rack count varied.
func (g churnGeom) name() string {
	name := fmt.Sprintf("hpr%d-oversub%g", g.topo.HostsPerRack, g.topo.Oversub)
	if g.racks != 3 {
		name = fmt.Sprintf("racks%d-%s", g.racks, name)
	}
	return name
}

// churnGeoms are the geometries a churn script may run on: three racks
// of 4/6/20 hosts behind 1:1, 4:1 and 8:1 cores, then 20 racks of 20
// behind 4:1 and 8:1, shaped like the benchmark's 2,000-node fabric. At
// 4 hosts and 4:1 the rack links have the host links' capacity. Three
// racks rarely split a script's flows into disjoint components. The wide
// cells do, and their scripts run at four times the pace, which keeps
// about 50 flows in the fabric, so a fill reaches about a third of them.
// New geometries go at the end, so that a corpus entry's first byte keeps
// naming the same geometry.
var churnGeoms = []churnGeom{
	{cluster.TopologySpec{HostsPerRack: 4, Oversub: 1}, 3, 1},
	{cluster.TopologySpec{HostsPerRack: 4, Oversub: 4}, 3, 1},
	{cluster.TopologySpec{HostsPerRack: 4, Oversub: 8}, 3, 1},
	{cluster.TopologySpec{HostsPerRack: 6, Oversub: 1}, 3, 1},
	{cluster.TopologySpec{HostsPerRack: 6, Oversub: 4}, 3, 1},
	{cluster.TopologySpec{HostsPerRack: 6, Oversub: 8}, 3, 1},
	{cluster.TopologySpec{HostsPerRack: 20, Oversub: 1}, 3, 1},
	{cluster.TopologySpec{HostsPerRack: 20, Oversub: 4}, 3, 1},
	{cluster.TopologySpec{HostsPerRack: 20, Oversub: 8}, 3, 1},
	{cluster.TopologySpec{HostsPerRack: 20, Oversub: 4}, 20, 4},
	{cluster.TopologySpec{HostsPerRack: 20, Oversub: 8}, 20, 4},
}

// cluster builds the geometry's cluster.
func (g churnGeom) cluster() *cluster.Cluster {
	return testCluster(g.racks*g.topo.HostsPerRack, &g.topo)
}

// Churn op kinds.
const (
	opFlow      = iota // point-to-point, any two nodes
	opAggOwn           // aggregate from the destination's own rack
	opAggRack          // aggregate from one named rack
	opAggRemote        // aggregate from AllRemoteRacks
	opCancel           // cancel an earlier flow (a no-op once it ended)
	numOps
)

// churnOp is one scripted fabric mutation at virtual time at.
type churnOp struct {
	at    sim.Time
	kind  int
	x, y  int // node (or rack) selectors; for opCancel x picks a recent flow
	bytes int64
}

// churnOpBytes is the encoded size of one op.
const churnOpBytes = 7

// decodeChurn turns bytes into a geometry and a churn script. The first
// byte picks the geometry; each following 7 bytes are one op: kind, time
// gap since the previous op, two little-endian 16-bit selectors, which
// reach every node and rack of the widest geometry, and a size of
// 1–256 × 2 MB. A quarter of the gaps are zero, so ops often share an
// instant; the rest are up to 0.37 s over the geometry's pace, which
// keeps tens of flows in the fabric.
func decodeChurn(data []byte) (churnGeom, []churnOp) {
	if len(data) == 0 {
		return churnGeoms[0], nil
	}
	geom := churnGeoms[int(data[0])%len(churnGeoms)]
	var ops []churnOp
	var at sim.Time
	for b := data[1:]; len(b) >= churnOpBytes; b = b[churnOpBytes:] {
		if b[1] >= 64 {
			at += sim.Time(b[1]-64) / 512 / geom.pace
		}
		ops = append(ops, churnOp{
			at:    at,
			kind:  int(b[0]) % numOps,
			x:     int(binary.LittleEndian.Uint16(b[2:])),
			y:     int(binary.LittleEndian.Uint16(b[4:])),
			bytes: int64(1+int(b[6])) * 2 * MB,
		})
	}
	return geom, ops
}

// churnBytes is the encoded script the model test runs for geometry gi
// and seed: ops random draws after the geometry byte.
func churnBytes(gi int, seed int64, ops int) []byte {
	data := make([]byte, 1+ops*churnOpBytes)
	randutil.New(seed).Read(data)
	data[0] = byte(gi)
	return data
}

// churnEvent is one observable outcome of a churn run: a flow finishing
// (bytes −1) or a cancel returning the bytes moved.
type churnEvent struct {
	at    sim.Time
	label string
	bytes int64
}

// playChurn schedules a script on eng. start begins flow k (k counts
// start ops) and cancel cancels flow k, one of the last 16 started.
func playChurn(eng *sim.Engine, ops []churnOp, start func(k int, op churnOp), cancel func(k int)) {
	started := 0
	for _, op := range ops {
		k := started
		if op.kind == opCancel {
			if started == 0 {
				continue
			}
			k = max(started-1-op.x%16, 0)
			eng.At(op.at, "churn-cancel", func() { cancel(k) })
			continue
		}
		started++
		eng.At(op.at, "churn-start", func() { start(k, op) })
	}
}

// churnLabel names flow k.
func churnLabel(k int) string { return fmt.Sprintf("flow-%03d", k) }

// runFabric plays a script on the fabric, checks it against the model
// after every start, cancel and finish, and returns what it observed,
// each started flow's path and the fabric.
func runFabric(t testing.TB, geom churnGeom, ops []churnOp) ([]churnEvent, [][]int32, *Fabric) {
	t.Helper()
	eng := sim.New()
	n := geom.racks * geom.topo.HostsPerRack
	f, err := New(eng, geom.cluster())
	if err != nil {
		t.Fatal(err)
	}
	var log []churnEvent
	var flows []*Flow
	var paths [][]int32
	mutation := 0
	check := func(what string) {
		mutation++
		if err := checkAgainstReference(f); err != nil {
			t.Fatalf("mutation %d (%s at t=%v): %v", mutation, what, eng.Now(), err)
		}
	}
	playChurn(eng, ops, func(k int, op churnOp) {
		label := churnLabel(k)
		done := func() {
			log = append(log, churnEvent{eng.Now(), label, -1})
			check("finish " + label)
		}
		dst := cluster.NodeID(op.y % n)
		var fl *Flow
		switch op.kind {
		case opFlow:
			src := cluster.NodeID(op.x % n)
			if src == dst {
				src = (src + 1) % cluster.NodeID(n)
			}
			fl = f.StartFlow(src, dst, op.bytes, label, done)
		case opAggOwn:
			fl = f.StartAggFlow(f.RackOf(dst), dst, op.bytes, label, done)
		case opAggRack:
			fl = f.StartAggFlow(op.x%geom.racks, dst, op.bytes, label, done)
		case opAggRemote:
			fl = f.StartAggFlow(AllRemoteRacks, dst, op.bytes, label, done)
		}
		flows = append(flows, fl)
		paths = append(paths, slices.Clone(fl.path[:fl.npath]))
		check("start " + label)
	}, func(k int) {
		log = append(log, churnEvent{eng.Now(), churnLabel(k), f.Cancel(flows[k])})
		check("cancel " + churnLabel(k))
	})
	eng.Run()
	if len(f.active) != 0 {
		t.Fatalf("%d flows still active after drain", len(f.active))
	}
	return log, paths, f
}

// checkAgainstReference compares the fabric's rates and per-link
// remaining capacities with referenceRates bit for bit, and checks that
// every link's flow list holds exactly the active flows crossing it, at
// the slots the flows record, with the fill's heap drained. Only the
// capRem comparison sees the clamp at zero: it bites on links whose last
// unfrozen flows freeze in that round, which no later rate reads.
func checkAgainstReference(f *Fabric) error {
	caps := make([]float64, len(f.links))
	for i := range f.links {
		caps[i] = f.links[i].cap
	}
	paths := make([][]int32, len(f.active))
	crossing := make([]int, len(f.links))
	for i, fl := range f.active {
		paths[i] = fl.path[:fl.npath]
		for j, li := range paths[i] {
			crossing[li]++
			l := &f.links[li]
			if int(fl.slot[j]) >= len(l.flows) || l.flows[fl.slot[j]] != fl {
				return fmt.Errorf("flow %s missing from link %d's list at slot %d", fl.label, li, fl.slot[j])
			}
		}
	}
	for li := range f.links {
		l := &f.links[li]
		if len(l.flows) != crossing[li] || l.hpos != -1 || l.dirty {
			return fmt.Errorf("link %d: %d listed flows, %d crossing, hpos %d, dirty %v",
				li, len(l.flows), crossing[li], l.hpos, l.dirty)
		}
	}
	if len(f.heap) != 0 || len(f.dirty) != 0 {
		return fmt.Errorf("fill left %d links in the heap and %d dirty", len(f.heap), len(f.dirty))
	}
	rates, capRem := referenceRates(caps, paths)
	for i, fl := range f.active {
		if math.Float64bits(fl.rate) != math.Float64bits(rates[i]) {
			return fmt.Errorf("flow %s rate %v (%#x), reference %v (%#x)",
				fl.label, fl.rate, math.Float64bits(fl.rate), rates[i], math.Float64bits(rates[i]))
		}
	}
	for li := range f.links {
		if crossing[li] > 0 && math.Float64bits(f.links[li].capRem) != math.Float64bits(capRem[li]) {
			return fmt.Errorf("link %d capRem %v, reference %v", li, f.links[li].capRem, capRem[li])
		}
	}
	return nil
}

// refFlow is one flow of runReference.
type refFlow struct {
	label             string
	path              []int32
	total, done, rate float64
	lastSync          sim.Time
	ev                sim.Handle
	ended             bool
}

// runReference plays a script the way the fabric did before per-link
// lists: sync every flow, refill from scratch with referenceRates, and
// reschedule the flows whose rate changed, in start order. paths are the
// flows' links as the fabric routed them.
func runReference(geom churnGeom, ops []churnOp, paths [][]int32) []churnEvent {
	eng := sim.New()
	f, err := New(eng, geom.cluster())
	if err != nil {
		panic(err)
	}
	caps := make([]float64, len(f.links))
	for i := range f.links {
		caps[i] = f.links[i].cap
	}
	var log []churnEvent
	var active, flows []*refFlow
	var recompute func()
	end := func(fl *refFlow) {
		fl.ended = true
		active = slices.DeleteFunc(active, func(o *refFlow) bool { return o == fl })
		recompute()
	}
	recompute = func() {
		now := eng.Now()
		ps := make([][]int32, len(active))
		for i, fl := range active {
			fl.done = math.Min(fl.done+fl.rate*float64(now-fl.lastSync), fl.total)
			fl.lastSync = now
			ps[i] = fl.path
		}
		rates, _ := referenceRates(caps, ps)
		for i, fl := range active {
			if rates[i] == fl.rate {
				continue
			}
			fl.rate = rates[i]
			fl.ev.Cancel()
			fl.ev = eng.After(sim.Duration(math.Max(fl.total-fl.done, 0)/fl.rate), "net-flow-done", func() {
				fl.done = fl.total
				end(fl)
				log = append(log, churnEvent{eng.Now(), fl.label, -1})
			})
		}
	}
	playChurn(eng, ops, func(k int, op churnOp) {
		fl := &refFlow{label: churnLabel(k), path: paths[k], total: float64(op.bytes), lastSync: eng.Now()}
		flows = append(flows, fl)
		active = append(active, fl)
		recompute()
	}, func(k int) {
		fl := flows[k]
		moved := int64(0)
		if !fl.ended {
			fl.done = math.Min(fl.done+fl.rate*float64(eng.Now()-fl.lastSync), fl.total)
			fl.lastSync = eng.Now()
			fl.ev.Cancel()
			moved = int64(fl.done + 0.5)
			end(fl)
		}
		log = append(log, churnEvent{eng.Now(), fl.label, moved})
	})
	eng.Run()
	return log
}

// checkChurn runs an encoded script on the fabric and on the reference
// and requires the same finishes and cancels, at the same instants, in
// the same order. It returns the fabric the script ran on.
func checkChurn(t testing.TB, data []byte) *Fabric {
	t.Helper()
	geom, ops := decodeChurn(data)
	got, paths, f := runFabric(t, geom, ops)
	want := runReference(geom, ops, paths)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("event %d: fabric %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fabric logged %d events, reference %d", len(got), len(want))
	}
	return f
}

// churnSeeds are the model test's seeds per geometry; the fuzz target
// starts from the same scripts.
var churnSeeds = []int64{1, 2, 3, 42}

// churnScriptOps is the op count of each model-test script.
const churnScriptOps = 300

// TestFabricMatchesReference drives seeded random churn — point-to-point
// flows, aggregates from all three source kinds, cancels and natural
// finishes — over every churn geometry, and requires the component-scoped
// fill to reproduce the global from-scratch reference bit for bit after
// every mutation, and the reference's completion schedule. The wide cells
// must keep splitting the flows: their fills reach 15.5 of 48.5 active
// flows on average, and the test fails above half.
func TestFabricMatchesReference(t *testing.T) {
	var recomputes, filled, synced int64
	for gi, geom := range churnGeoms {
		for _, seed := range churnSeeds {
			t.Run(fmt.Sprintf("%s-seed%d", geom.name(), seed), func(t *testing.T) {
				f := checkChurn(t, churnBytes(gi, seed, churnScriptOps))
				if geom.racks > 3 {
					recomputes += f.recomputes
					filled, synced = filled+f.filled, synced+f.synced
				}
			})
		}
	}
	t.Logf("wide cells: %.1f flows filled of %.1f active per recompute",
		float64(filled)/float64(recomputes), float64(synced)/float64(recomputes))
	if 2*filled > synced {
		t.Errorf("wide cells filled %d of %d synced flows, more than half: their scripts no longer split into components", filled, synced)
	}
}

// FuzzFabricMatchesReference decodes bytes into a churn script (see
// decodeChurn) and checks it as TestFabricMatchesReference does.
func FuzzFabricMatchesReference(f *testing.F) {
	for gi := range churnGeoms {
		for _, seed := range churnSeeds {
			f.Add(churnBytes(gi, seed, churnScriptOps))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+400*churnOpBytes {
			return
		}
		checkChurn(t, data)
	})
}

// TestFabricChurnAllocs pins the allocation cost of a flow's life: a
// StartFlow + Cancel cycle that reshares (and reschedules) about 100
// other flows allocates only the Flow and its completion callback.
func TestFabricChurnAllocs(t *testing.T) {
	eng := sim.New()
	// Stock the engine's free list: the completion events a reschedule
	// cancels stay queued until their instant, so every reschedule takes
	// fresh event storage.
	for i := 0; i < 1<<14; i++ {
		eng.At(0, "warm", func() {})
	}
	eng.Run()
	f := mustFabric(t, eng, testCluster(128, &cluster.TopologySpec{HostsPerRack: 128}))
	for i := 1; i <= 100; i++ {
		f.StartFlow(cluster.NodeID(i), 0, 100*MB, "bg", func() {})
	}
	allocs := testing.AllocsPerRun(20, func() {
		f.Cancel(f.StartFlow(101, 0, 100*MB, "churn", func() {}))
	})
	if allocs > 2 {
		t.Errorf("StartFlow+Cancel with 100 flows resharing: %v allocs, want ≤ 2 (Flow and callback)", allocs)
	}
}

// TestFabricDisjointComponentUntouched starts and cancels a flow in one
// rack while about 100 flows share a receiver in another, and requires
// that neither fill reaches a background flow: each keeps its rate bit
// for bit and its completion event, uncanceled.
func TestFabricDisjointComponentUntouched(t *testing.T) {
	eng := sim.New()
	f := mustFabric(t, eng, testCluster(256, &cluster.TopologySpec{HostsPerRack: 128}))
	var bg []*Flow
	for i := 1; i <= 100; i++ {
		bg = append(bg, f.StartFlow(cluster.NodeID(i), 0, 100*MB, "bg", func() {}))
	}
	rates := make([]uint64, len(bg))
	events := make([]sim.Handle, len(bg))
	for i, fl := range bg {
		rates[i], events[i] = math.Float64bits(fl.rate), fl.ev
	}
	filled := f.filled
	fl := f.StartFlow(200, 129, 100*MB, "other-rack", func() {})
	if got := f.filled - filled; got != 1 {
		t.Errorf("starting a flow alone in its rack filled %d flows, want 1", got)
	}
	f.Cancel(fl)
	if got := f.filled - filled; got != 1 {
		t.Errorf("canceling a flow alone in its rack filled %d flows, want none", got-1)
	}
	for i, fl := range bg {
		if math.Float64bits(fl.rate) != rates[i] {
			t.Errorf("background flow %d: rate %v, was %v", i, fl.rate, math.Float64frombits(rates[i]))
		}
		if events[i].Canceled() || fl.ev.At() != events[i].At() {
			t.Errorf("background flow %d: completion event rescheduled", i)
		}
	}
}

// BenchmarkFabricChurn times one flow start plus one flow finish on a
// 2,000-node fabric in racks of 20 behind a 4:1 core carrying about 400
// aggregate shuffle flows.
func BenchmarkFabricChurn(b *testing.B) {
	const nodes, flows = 2000, 400
	eng := sim.New()
	f, err := New(eng, testCluster(nodes, &cluster.TopologySpec{HostsPerRack: 20, Oversub: 4}))
	if err != nil {
		b.Fatal(err)
	}
	rng := randutil.New(1)
	start := func() {
		dst := cluster.NodeID(rng.Intn(nodes))
		src := AllRemoteRacks
		if rng.Intn(2) == 0 {
			src = f.RackOf(dst)
		}
		f.StartAggFlow(src, dst, int64(1+rng.Intn(256))*MB, "bench", func() {})
	}
	for i := 0; i < flows; i++ {
		start()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start()
		eng.Step() // the earliest completion: one flow finishes
	}
}
