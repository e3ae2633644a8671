package engine

import (
	"strconv"
	"strings"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/mr"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/yarn"
)

// newLiveHarness builds a harness whose input file carries real bytes and
// whose spec runs a real word-count map/reduce pair.
func newLiveHarness(t *testing.T, reducers int) *harness {
	t.Helper()
	eng := sim.New()
	c := cluster.Homogeneous(3)
	store := dfs.NewStore(c, 2, randutil.New(13))
	data := []byte(strings.Repeat("alpha beta beta\n", 4096))
	if _, err := store.AddFileWithData("input", data); err != nil {
		t.Fatal(err)
	}
	spec := mr.JobSpec{
		Name: "live-wc", InputFile: "input", NumReducers: reducers,
		MapCost: 1, ShuffleRatio: 0.3, ReduceCost: 1,
		Mapper: func(block []byte, emit func(k, v string)) {
			for _, w := range strings.Fields(string(block)) {
				emit(w, "1")
			}
		},
		Reducer: func(key string, values []string, emit func(k, v string)) {
			emit(key, strconv.Itoa(len(values)))
		},
	}
	rm := yarn.NewRM(eng, c)
	d, err := NewDriver(NewExecutor(eng, c, BaseIPS), store, rm, spec)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{eng: eng, clus: c, store: store, rm: rm, driver: d}
}

func TestLiveMapReduceThroughStockAM(t *testing.T) {
	h := newLiveHarness(t, 2)
	bindStock(t, h.driver, 8, nil)
	h.rm.Start()
	h.eng.Run()
	out := h.driver.Result.Output
	if out["alpha"] != "4096" || out["beta"] != "8192" {
		t.Fatalf("live output wrong: %v", out)
	}
}

func TestLiveMapOnlyCollectsOutput(t *testing.T) {
	h := newLiveHarness(t, 0)
	// Map-only: the emit path writes directly into Output.
	h.driver.Spec.Reducer = nil
	bindStock(t, h.driver, 8, nil)
	h.rm.Start()
	h.eng.Run()
	if len(h.driver.Result.Output) == 0 {
		t.Fatal("map-only live job produced no output")
	}
}

func TestPartitionOfStable(t *testing.T) {
	for _, r := range []int{1, 2, 7} {
		a, b := partitionOf("key", r), partitionOf("key", r)
		if a != b {
			t.Fatal("partitioning not deterministic")
		}
		if a < 0 || a >= r {
			t.Fatalf("partition %d out of range for r=%d", a, r)
		}
	}
}

// fixedPolicy speculates the oldest candidate unconditionally.
type fixedPolicy struct{ picks int }

func (p *fixedPolicy) Pick(d *Driver, node *cluster.Node, candidates []*MapAttempt, candEpoch uint64, activeSpec int) *MapAttempt {
	if len(candidates) == 0 || activeSpec > 0 {
		return nil
	}
	p.picks++
	for _, a := range candidates {
		if a != nil {
			return a
		}
	}
	panic("candidate set ends in a tombstone")
}

func (p *fixedPolicy) Idle(d *Driver, candidates []*MapAttempt, candEpoch uint64, activeSpec int) bool {
	return len(candidates) == 0 || activeSpec > 0
}

func TestStockSpeculationRaceViaPolicy(t *testing.T) {
	// Fast/slow pair: the slow node's final task gets duplicated by the
	// always-speculate policy and the fast copy must win the race.
	eng := sim.New()
	c := cluster.NewCluster("race", []cluster.NodeSpec{
		{Name: "fast", BaseSpeed: 4, Slots: 2},
		{Name: "slow", BaseSpeed: 0.25, Slots: 2},
	})
	store := dfs.NewStore(c, 2, randutil.New(13))
	if _, err := store.AddFile("input", 32*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	rm := yarn.NewRM(eng, c)
	d, err := NewDriver(NewExecutor(eng, c, BaseIPS), store, rm, wcSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	policy := &fixedPolicy{}
	bindStock(t, d, 8, policy)
	rm.Start()
	eng.RunUntil(1e5)
	if !d.Finished() {
		t.Fatal("job did not finish")
	}
	if policy.picks == 0 {
		t.Fatal("policy was never consulted")
	}
	if d.Result.SpeculativeLaunches == 0 {
		t.Fatal("no speculative attempt launched")
	}
	// Some attempt lost the race and was killed; work stayed exactly-once.
	killed := 0
	total := 0
	for _, a := range d.Result.Attempts {
		if a.Type != mr.MapTask {
			continue
		}
		if a.Killed {
			killed++
		} else {
			total += a.BUs
		}
	}
	if killed == 0 {
		t.Fatal("no race loser recorded")
	}
	if total != 32 {
		t.Fatalf("successful attempts cover %d BUs, want 32", total)
	}
}

func TestWorkTotalAccessor(t *testing.T) {
	eng := sim.New()
	c := cluster.Homogeneous(1)
	x := NewExecutor(eng, c, 10)
	w := startWork(x, c.Node(0), 42, func() {})
	if w.total != 42 {
		t.Fatalf("total = %v", w.total)
	}
	eng.Run()
}

func TestStockAccessors(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	am := bindStock(t, h.driver, 8, nil)
	if am.d != h.driver {
		t.Fatal("stock AM bound to the wrong driver")
	}
	h.rm.Start()
	h.eng.Run()
}
