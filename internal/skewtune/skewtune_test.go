package skewtune

import (
	"strings"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/engine"
	"flexmap/internal/mr"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/yarn"
)

type harness struct {
	eng    *sim.Engine
	clus   *cluster.Cluster
	store  *dfs.Store
	rm     *yarn.RM
	driver *engine.Driver
	am     *AM
}

func newHarness(t *testing.T, c *cluster.Cluster, fileBUs int64, splitBUs int) *harness {
	t.Helper()
	eng := sim.New()
	store := dfs.NewStore(c, 3, randutil.New(9))
	spec := mr.JobSpec{Name: "wc", InputFile: "input", NumReducers: 2,
		MapCost: 1, ShuffleRatio: 0.2, ReduceCost: 1}
	if _, err := store.AddFile("input", fileBUs*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	rm := yarn.NewRM(eng, c)
	d, err := engine.NewDriver(engine.NewExecutor(eng, c, engine.BaseIPS), store, rm, spec)
	if err != nil {
		t.Fatal(err)
	}
	am, err := New(d, splitBUs)
	if err != nil {
		t.Fatal(err)
	}
	rm.SetScheduler(am)
	return &harness{eng: eng, clus: c, store: store, rm: rm, driver: d, am: am}
}

func (h *harness) run(t *testing.T) {
	t.Helper()
	h.rm.Start()
	h.eng.RunUntil(1e6)
	if !h.driver.Finished() {
		t.Fatal("skewtune job did not finish")
	}
}

// stragglerCluster has one node that is drastically slower, creating a
// long straggler SkewTune must repartition.
func stragglerCluster() *cluster.Cluster {
	return cluster.NewCluster("strag", []cluster.NodeSpec{
		{Name: "ok-0", BaseSpeed: 1, Slots: 2},
		{Name: "ok-1", BaseSpeed: 1, Slots: 2},
		{Name: "ok-2", BaseSpeed: 1, Slots: 2},
		{Name: "crawl", BaseSpeed: 0.1, Slots: 2},
	})
}

func TestSkewTuneRepartitionsStragglers(t *testing.T) {
	h := newHarness(t, stragglerCluster(), 64, 8)
	h.run(t)
	if h.driver.Result.RepartitionBytes == 0 {
		t.Fatal("no repartitioning happened despite a 10x straggler")
	}
	// Subtask names mark repartition rounds.
	sub := 0
	for _, a := range h.driver.Result.Attempts {
		if strings.Contains(a.Task, ".r") && !a.Killed && !strings.HasSuffix(a.Task, ".prefix") {
			sub++
		}
	}
	if sub == 0 {
		t.Fatal("no repartition subtasks completed")
	}
}

func TestSkewTuneBeatsNoMitigation(t *testing.T) {
	h := newHarness(t, stragglerCluster(), 64, 8)
	h.run(t)
	skew := h.driver.Result.Finished

	// Same setup under plain stock without speculation.
	eng := sim.New()
	c := stragglerCluster()
	store := dfs.NewStore(c, 3, randutil.New(9))
	spec := mr.JobSpec{Name: "wc", InputFile: "input", NumReducers: 2,
		MapCost: 1, ShuffleRatio: 0.2, ReduceCost: 1}
	if _, err := store.AddFile("input", 64*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	rm := yarn.NewRM(eng, c)
	d, err := engine.NewDriver(engine.NewExecutor(eng, c, engine.BaseIPS), store, rm, spec)
	if err != nil {
		t.Fatal(err)
	}
	stock, err := engine.NewStockAM(d, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	rm.SetScheduler(stock)
	rm.Start()
	eng.RunUntil(1e6)
	if !d.Finished() {
		t.Fatal("stock job did not finish")
	}
	if skew >= d.Result.Finished {
		t.Fatalf("SkewTune (%v) did not beat stock (%v) with a 10x straggler",
			skew, d.Result.Finished)
	}
}

func TestSkewTuneBUCoverage(t *testing.T) {
	h := newHarness(t, stragglerCluster(), 96, 8)
	h.run(t)
	// Every BU appears in exactly one successful record (partial prefixes
	// plus subtasks must tile the stopped originals).
	total := 0
	for _, a := range h.driver.Result.MapAttempts() {
		total += a.BUs
	}
	if total != 96 {
		t.Fatalf("successful records cover %d BUs, want 96", total)
	}
}

func TestSkewTuneNoRepartitionOnHomogeneous(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(4), 64, 8)
	h.run(t)
	// Uniform nodes, uniform tasks (no noise in this harness): stragglers
	// never exceed the worth-it threshold.
	if h.driver.Result.RepartitionBytes != 0 {
		t.Fatalf("repartitioned %d bytes on a homogeneous cluster",
			h.driver.Result.RepartitionBytes)
	}
}

func TestSkewTuneIdleSlotsAreUsed(t *testing.T) {
	h := newHarness(t, stragglerCluster(), 64, 8)
	h.run(t)
	// After repartition the subtasks should run on the healthy nodes —
	// the crawl node must not process everything it started with.
	crawlBytes := int64(0)
	var total int64
	for _, a := range h.driver.Result.MapAttempts() {
		if h.clus.Node(a.Node).Name == "crawl" {
			crawlBytes += a.Bytes
		}
		total += a.Bytes
	}
	// The crawl node is 10% speed with 25% of slots; it must end with far
	// less than a proportional share of data.
	if float64(crawlBytes) > 0.2*float64(total) {
		t.Fatalf("crawl node kept %d of %d bytes; repartition ineffective", crawlBytes, total)
	}
}

func TestSkewTuneContainersAllReleased(t *testing.T) {
	h := newHarness(t, stragglerCluster(), 64, 8)
	h.run(t)
	if h.rm.TotalFree() != h.clus.TotalSlots() {
		t.Fatalf("leaked containers: %d free of %d", h.rm.TotalFree(), h.clus.TotalSlots())
	}
}

func TestSkewTuneDeterminism(t *testing.T) {
	run := func() sim.Time {
		h := newHarness(t, stragglerCluster(), 64, 8)
		h.run(t)
		return h.driver.Result.Finished
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}
