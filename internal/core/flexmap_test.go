package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/engine"
	"flexmap/internal/mr"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/speculate"
	"flexmap/internal/trace"
	"flexmap/internal/yarn"
)

// runFlexMap wires and runs a complete FlexMap job with its event trace
// collected.
func runFlexMap(t *testing.T, c *cluster.Cluster, fileBUs int64, spec mr.JobSpec, speculation engine.SpeculationPolicy) *engine.Driver {
	t.Helper()
	eng := sim.New()
	store := dfs.NewStore(c, 3, randutil.New(5))
	if _, err := store.AddFile(spec.InputFile, fileBUs*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	rm := yarn.NewRM(eng, c)
	d, err := engine.NewDriver(engine.NewExecutor(eng, c, engine.BaseIPS), store, rm, spec)
	if err != nil {
		t.Fatal(err)
	}
	d.Trace = trace.New(eng)
	am, err := NewAM(d, randutil.New(5).Split("flexmap"))
	if err != nil {
		t.Fatal(err)
	}
	am.Speculation = speculation
	rm.SetScheduler(am)
	rm.Start()
	eng.RunUntil(1e6)
	if !d.Finished() {
		t.Fatal("flexmap job did not finish")
	}
	return d
}

// sizing is one dispatched task read from the trace: a task-bind event
// and the sizer decision emitted just before it on the same node.
type sizing struct {
	Task     string
	Node     cluster.NodeID
	BUs      int
	SizeUnit int
	RelSpeed float64
}

// sizings decodes the dispatches among events from their JSONL encoding,
// the form a traced run writes.
func sizings(t *testing.T, events []trace.Event) []sizing {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	type line struct {
		Kind     string         `json:"kind"`
		Node     cluster.NodeID `json:"node"`
		Task     string         `json:"task"`
		RelSpeed float64        `json:"rel_speed"`
		SizeUnit int            `json:"size_unit"`
		BUs      int            `json:"bus"`
	}
	var out []sizing
	var prev line
	for dec := json.NewDecoder(&buf); dec.More(); {
		var e line
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		if e.Kind == "task-bind" {
			if prev.Kind != "sizer" || prev.Node != e.Node {
				t.Fatalf("task-bind %s on node %d follows %+v, not its sizer decision", e.Task, e.Node, prev)
			}
			out = append(out, sizing{Task: e.Task, Node: e.Node, BUs: e.BUs, SizeUnit: prev.SizeUnit, RelSpeed: prev.RelSpeed})
		}
		prev = e
	}
	return out
}

func flexSpec(reducers int) mr.JobSpec {
	return mr.JobSpec{
		Name: "wc", InputFile: "input", NumReducers: reducers,
		MapCost: 1, ShuffleRatio: 0.2, ReduceCost: 1,
	}
}

func TestFlexMapCoversEveryBUExactlyOnce(t *testing.T) {
	d := runFlexMap(t, cluster.Heterogeneous6(), 256, flexSpec(4), nil)
	total := 0
	for _, a := range d.Result.MapAttempts() {
		total += a.BUs
	}
	if total != 256 {
		t.Fatalf("successful attempts cover %d BUs, want 256", total)
	}
}

func TestFlexMapTaskSizesGrow(t *testing.T) {
	d := runFlexMap(t, cluster.Heterogeneous6(), 512, flexSpec(0), nil)
	dispatched := sizings(t, d.Trace.Events())
	if len(dispatched) == 0 {
		t.Fatal("no task-bind event traced")
	}
	first := dispatched[0].BUs
	max := 0
	for _, s := range dispatched {
		if s.BUs > max {
			max = s.BUs
		}
	}
	if first != 1 {
		t.Fatalf("first task size = %d BUs, want 1 (all nodes start at one BU)", first)
	}
	if max < 4 {
		t.Fatalf("max task size = %d BUs; vertical scaling never engaged", max)
	}
}

func TestFlexMapFastNodesGetBiggerTasks(t *testing.T) {
	d := runFlexMap(t, cluster.Heterogeneous6(), 1024, flexSpec(0), nil)
	// Mean dispatched-task size per node, weighted toward the steady state
	// by skipping each node's first three dispatches.
	perNode := map[cluster.NodeID][]int{}
	for _, s := range sizings(t, d.Trace.Events()) {
		perNode[s.Node] = append(perNode[s.Node], s.BUs)
	}
	meanAfterRamp := func(sizes []int) float64 {
		if len(sizes) <= 3 {
			return 0
		}
		sum := 0
		for _, v := range sizes[3:] {
			sum += v
		}
		return float64(sum) / float64(len(sizes)-3)
	}
	fast, slow := 0.0, 0.0
	nFast, nSlow := 0, 0
	for id, sizes := range perNode {
		m := meanAfterRamp(sizes)
		if m == 0 {
			continue
		}
		if d.Cluster.Node(id).BaseSpeed >= 2.0 {
			fast += m
			nFast++
		} else if d.Cluster.Node(id).BaseSpeed == 1.0 {
			slow += m
			nSlow++
		}
	}
	if nFast == 0 || nSlow == 0 {
		t.Skip("no per-class samples")
	}
	if fast/float64(nFast) <= slow/float64(nSlow) {
		t.Fatalf("fast nodes mean task %.1f BUs ≤ slow nodes %.1f — horizontal scaling inactive",
			fast/float64(nFast), slow/float64(nSlow))
	}
}

func TestFlexMapDataProportionalToCapacity(t *testing.T) {
	d := runFlexMap(t, cluster.Heterogeneous6(), 1024, flexSpec(0), nil)
	bytesPerClass := map[string]int64{}
	for _, a := range d.Result.MapAttempts() {
		bytesPerClass[d.Cluster.Node(a.Node).Class] += a.Bytes
	}
	// The single T430 (2.8x, 16 slots) must process more data than any
	// single OPTIPLEX (1.0x, 4 slots).
	t430 := bytesPerClass["PowerEdge T430"]
	optPerNode := bytesPerClass["OPTIPLEX 990"] / 3
	if t430 <= optPerNode {
		t.Fatalf("fast node processed %d MB ≤ slow node %d MB", t430>>20, optPerNode>>20)
	}
}

func TestFlexMapReduceBiasFavorsFastNodes(t *testing.T) {
	// Strongly skewed cluster: 2 fast, 4 very slow via base speed.
	c := cluster.NewCluster("skewed", []cluster.NodeSpec{
		{Name: "f0", BaseSpeed: 3, Slots: 8}, {Name: "f1", BaseSpeed: 3, Slots: 8},
		{Name: "s0", BaseSpeed: 1, Slots: 8}, {Name: "s1", BaseSpeed: 1, Slots: 8},
		{Name: "s2", BaseSpeed: 1, Slots: 8}, {Name: "s3", BaseSpeed: 1, Slots: 8},
	})
	d := runFlexMap(t, c, 512, flexSpec(16), nil)
	fast, slow := 0, 0
	for _, a := range d.Result.ReduceAttempts() {
		if d.Cluster.Node(a.Node).BaseSpeed == 3 {
			fast++
		} else {
			slow++
		}
	}
	if fast+slow != 16 {
		t.Fatalf("reduce attempts = %d, want 16", fast+slow)
	}
	// Fast nodes are 1/3 of the cluster; with c² bias they must receive
	// clearly more than a third of the reducers.
	if fast < 7 {
		t.Fatalf("fast nodes received %d of 16 reducers; bias ineffective", fast)
	}
}

func TestFlexMapSpeculationRescuesStragglers(t *testing.T) {
	// One node collapses to 10% speed after dispatch; with speculation
	// the job must finish much earlier than without.
	run := func(spec engine.SpeculationPolicy) sim.Time {
		eng := sim.New()
		c := cluster.NewCluster("c", []cluster.NodeSpec{
			{BaseSpeed: 1, Slots: 2}, {BaseSpeed: 1, Slots: 2},
			{BaseSpeed: 1, Slots: 2}, {BaseSpeed: 1, Slots: 2},
		})
		store := dfs.NewStore(c, 3, randutil.New(5))
		if _, err := store.AddFile("input", 128*dfs.BUSize); err != nil {
			t.Fatal(err)
		}
		rm := yarn.NewRM(eng, c)
		d, err := engine.NewDriver(engine.NewExecutor(eng, c, engine.BaseIPS), store, rm, flexSpec(0))
		if err != nil {
			t.Fatal(err)
		}
		am, err := NewAM(d, randutil.New(5).Split("flexmap"))
		if err != nil {
			t.Fatal(err)
		}
		am.Speculation = spec
		rm.SetScheduler(am)
		// Collapse node 0 mid-job.
		eng.At(20, "collapse", func() { c.Node(0).SetInterference(0.1) })
		rm.Start()
		eng.RunUntil(1e6)
		if !d.Finished() {
			t.Fatal("job did not finish")
		}
		return d.Result.Finished
	}
	with := run(speculate.NewLATE())
	without := run(nil)
	if with >= without {
		t.Fatalf("speculation did not help: with=%v without=%v", with, without)
	}
}

func TestFlexMapDeterminism(t *testing.T) {
	run := func() (sim.Time, int) {
		d := runFlexMap(t, cluster.Heterogeneous6(), 256, flexSpec(4), speculate.NewLATE())
		return d.Result.Finished, len(d.Result.Attempts)
	}
	t1, a1 := run()
	t2, a2 := run()
	if t1 != t2 || a1 != a2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, a1, t2, a2)
	}
}

func TestFlexMapMapsDoneFiresOnce(t *testing.T) {
	// A panic from double MapsDone would fail this test.
	d := runFlexMap(t, cluster.Homogeneous(3), 64, flexSpec(2), speculate.NewLATE())
	if !d.MapsFinished() {
		t.Fatal("maps not finished")
	}
}

// newIdleAM wires a FlexMap AM over a fresh driver without starting the
// RM or the clock — for unit-testing scheduling arithmetic (fairShare)
// against a controlled tracker and speed monitor.
func newIdleAM(t *testing.T, c *cluster.Cluster, fileBUs int64) *AM {
	t.Helper()
	eng := sim.New()
	store := dfs.NewStore(c, len(c.Nodes), randutil.New(9))
	if _, err := store.AddFile("input", fileBUs*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	rm := yarn.NewRM(eng, c)
	spec := mr.JobSpec{Name: "wc", InputFile: "input", MapCost: 1, ShuffleRatio: 0, ReduceCost: 0}
	d, err := engine.NewDriver(engine.NewExecutor(eng, c, engine.BaseIPS), store, rm, spec)
	if err != nil {
		t.Fatal(err)
	}
	am, err := NewAM(d, randutil.New(9).Split("flexmap"))
	if err != nil {
		t.Fatal(err)
	}
	return am
}

func TestFairShareRemainderBelowFloor(t *testing.T) {
	// 2 nodes × 2 slots, unmeasured speeds: oneWave = 4 BUs at unit size.
	c := cluster.NewCluster("fs", []cluster.NodeSpec{{Slots: 2}, {Slots: 2}})
	am := newIdleAM(t, c, 64)
	if bus, _ := am.tracker.Take(0, 61); len(bus) != 61 {
		t.Fatalf("took %d BUs, want 61", len(bus))
	}
	// remaining = 3 < the 4-BU floor: the clamp to Remaining must win over
	// the floor, not hand out BUs that no longer exist.
	if got := am.fairShare(c.Nodes[0], 1.0); got != 3 {
		t.Fatalf("fairShare with 3 BUs left = %d, want 3", got)
	}
}

func TestFairShareZeroCapacityCluster(t *testing.T) {
	c := cluster.NewCluster("fs", []cluster.NodeSpec{{Slots: 2}, {Slots: 2}})
	am := newIdleAM(t, c, 64)
	// Degenerate totalRel ≤ 0 (no slots anywhere): fairShare must not
	// divide by zero and must leave the remainder unclamped.
	for _, n := range c.Nodes {
		n.Slots = 0
	}
	if got := am.fairShare(c.Nodes[0], 1.0); got != 64 {
		t.Fatalf("fairShare on zero-capacity cluster = %d, want remaining (64)", got)
	}
}

func TestFairShareEndgameProportional(t *testing.T) {
	c := cluster.NewCluster("fs", []cluster.NodeSpec{{Slots: 2}, {Slots: 2}})
	am := newIdleAM(t, c, 64)
	// Node 0 measured 8× faster: rels {8,1}, sizes {8,1}, oneWave = 18.
	for i := 0; i < ipsWindow; i++ {
		am.monitor.push(0, 8*1024*1024)
		am.monitor.push(1, 1*1024*1024)
	}
	if bus, _ := am.tracker.Take(0, 47); len(bus) != 47 {
		t.Fatalf("took %d BUs, want 47", len(bus))
	}
	// remaining = 17 < oneWave: endgame. Fast node's share is
	// capacity-proportional (⌊17×8/18⌋+1 = 8); slow node's proportional
	// share (1) is lifted to the 4-BU floor.
	if got := am.fairShare(c.Nodes[0], am.monitor.RelativeSpeed(0)); got != 8 {
		t.Fatalf("fast node fairShare = %d, want 8", got)
	}
	if got := am.fairShare(c.Nodes[1], am.monitor.RelativeSpeed(1)); got != 4 {
		t.Fatalf("slow node fairShare = %d, want 4 (the floor)", got)
	}
}

// capsOf returns the capacity function of nodes 0, 1, … with the given
// capacities.
func capsOf(caps ...float64) func(cluster.NodeID) float64 {
	return func(id cluster.NodeID) float64 { return caps[id] }
}

// Property: the biased picker's acceptance frequencies track c² within
// statistical tolerance (χ²-style sanity check, not a strict test).
func TestPropertyBiasedPickerDistribution(t *testing.T) {
	f := func(seed int64) bool {
		c := cluster.NewCluster("p", []cluster.NodeSpec{
			{BaseSpeed: 1, Slots: 100000}, {BaseSpeed: 1, Slots: 100000},
		})
		am := &AM{rng: randutil.New(seed), d: nil}
		caps := capsOf(1.0, 0.5)
		assigned := map[cluster.NodeID]int{}
		const draws = 2000
		counts := make([]int, 2)
		for i := 0; i < draws; i++ {
			counts[am.pickBiased(i, c.Nodes, caps, assigned)]++
		}
		// Expected ratio  c0²:c1² = 1 : 0.25 → node 0 share = 0.8.
		share := float64(counts[0]) / draws
		return math.Abs(share-0.8) < 0.06
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBiasedPickerRespectsCapacityGuard(t *testing.T) {
	c := cluster.NewCluster("g", []cluster.NodeSpec{
		{BaseSpeed: 1, Slots: 2}, {BaseSpeed: 1, Slots: 2},
	})
	am := &AM{rng: randutil.New(1)}
	caps := capsOf(1.0, 1.0)
	assigned := map[cluster.NodeID]int{}
	counts := make([]int, 2)
	for i := 0; i < 4; i++ {
		counts[am.pickBiased(i, c.Nodes, caps, assigned)]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("capacity guard failed: %v", counts)
	}
	// Fifth pick starts a new wave without hanging: per-wave counts reset
	// and exactly one node receives the overflow reducer.
	counts[am.pickBiased(4, c.Nodes, caps, assigned)]++
	if counts[0]+counts[1] != 5 {
		t.Fatalf("overflow pick lost: %v", counts)
	}
	if assigned[0]+assigned[1] != 1 {
		t.Fatalf("per-wave counts not reset on wave rollover: %v", assigned)
	}
}

// Regression for the multi-wave guard bug: once every node's slots were
// full the guard used to stay disabled for the rest of placement, so
// waves ≥2 were raw c² draws — a fast node could absorb nearly all the
// overflow. With the per-wave reset, every wave respects slot capacity:
// placing 3 waves' worth of reducers gives each node exactly 3×Slots.
func TestBiasedPickerBalancedAcrossWaves(t *testing.T) {
	c := cluster.NewCluster("w", []cluster.NodeSpec{
		{BaseSpeed: 1, Slots: 2}, {BaseSpeed: 1, Slots: 2},
	})
	// Unequal capacities: the raw-sampling bug would send ~80% of waves
	// 2-3 to node 0.
	caps := capsOf(1.0, 0.5)
	for seed := int64(1); seed <= 5; seed++ {
		am := &AM{rng: randutil.New(seed)}
		assigned := map[cluster.NodeID]int{}
		counts := make([]int, 2)
		const waves = 3
		for i := 0; i < waves*4; i++ {
			counts[am.pickBiased(i, c.Nodes, caps, assigned)]++
		}
		for _, n := range c.Nodes {
			if counts[n.ID] != waves*n.Slots {
				t.Fatalf("seed %d: wave balance broken: node %d got %d reducers, want %d (counts %v)",
					seed, n.ID, counts[n.ID], waves*n.Slots, counts)
			}
		}
	}
}

// Regression for the bail-out: when rejection sampling exhausts its draw
// budget (all-zero capacities make acceptance virtually impossible) the
// partition used to be dumped unconditionally on nodes[0]; now it goes
// to the least-loaded non-full node.
func TestBiasedPickerBailoutPicksLeastLoaded(t *testing.T) {
	c := cluster.NewCluster("b", []cluster.NodeSpec{
		{BaseSpeed: 1, Slots: 2}, {BaseSpeed: 1, Slots: 2},
	})
	am := &AM{rng: randutil.New(7)}
	caps := capsOf(0, 0)
	assigned := map[cluster.NodeID]int{0: 1}
	if got := am.pickBiased(0, c.Nodes, caps, assigned); got != 1 {
		t.Fatalf("bail-out picked node %d, want least-loaded node 1 (assigned %v)", got, assigned)
	}
	if assigned[1] != 1 {
		t.Fatalf("bail-out did not record its pick: %v", assigned)
	}
}
