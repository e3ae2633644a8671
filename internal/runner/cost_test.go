package runner

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/core"
	"flexmap/internal/dfs"
	"flexmap/internal/engine"
	"flexmap/internal/faults"
	"flexmap/internal/metrics"
	"flexmap/internal/mr"
	"flexmap/internal/puma"
	"flexmap/internal/speculate"
	"flexmap/internal/trace"
	"flexmap/internal/workload"
	"flexmap/internal/yarn"
)

// Columns of the counted-cost table.
const (
	colEvents    = iota // events fired
	colOffers           // offers that reached the scheduler, per event
	colWalked           // LATE candidate entries walked, per event
	colConsulted        // job schedulers the inter-job walk consulted, per event
	colAllocs           // heap allocations per event
	colMapAllocs        // heap allocations per map attempt
	colBUBytes          // heap bytes per committed BU
	colJobBytes         // heap bytes per job: a 40-job run less a 20-job run, over 20
	numCols
)

var costHeader = []string{"row", "engine", "variant",
	"events", "offers/ev", "walked/ev", "consulted/ev", "allocs/ev", "allocs/map", "B/BU", "B/job"}

// costGate is one gated cell: its ceiling and the test that holds it.
type costGate struct {
	test string // the name of the test that checks the cell
	row  *costRow
	col  int
}

type costRow struct {
	label  []string         // row, engine, variant
	ratio  bool             // cells are larger-over-smaller ratios of two fleets' runs
	v, max [numCols]float64 // readings, NaN when blank, and ceilings, 0 when not gated
}

func (r *costRow) String() string { return strings.Join(r.label, " ") }

func (r *costRow) format(col int, v float64) string {
	switch {
	case r.ratio:
		return fmt.Sprintf("%.2fx", v)
	case col == colEvents || col == colBUBytes || col == colJobBytes:
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

type costTable struct {
	rows  []*costRow
	gates []costGate
	built bool // every run finished
}

func (tab *costTable) row(name string, kind EngineKind, variant string) *costRow {
	r := &costRow{label: []string{name, string(kind), variant}}
	for col := range r.v {
		r.v[col] = math.NaN()
	}
	tab.rows = append(tab.rows, r)
	return r
}

// gate sets the ceiling of r's column col and hands the cell to the
// test named test, whose check fails a reading above it.
func (tab *costTable) gate(test string, r *costRow, col int, max float64) {
	r.max[col] = max
	tab.gates = append(tab.gates, costGate{test, r, col})
}

// check fails each cell gated to t's test whose reading is above its
// ceiling. Only the allocation and byte columns may be blank, under
// -race.
func (tab *costTable) check(t *testing.T) {
	t.Helper()
	n := 0
	for _, g := range tab.gates {
		if g.test != t.Name() {
			continue
		}
		n++
		switch r, v, max := g.row, g.row.v[g.col], g.row.max[g.col]; {
		case math.IsNaN(v) && !(raceEnabled && g.col >= colAllocs):
			t.Errorf("%s: %s is gated but has no reading", r, costHeader[3+g.col])
		case v > max:
			t.Errorf("%s: %s reads %s, ceiling %s", r, costHeader[3+g.col], r.format(g.col, v), r.format(g.col, max))
		}
	}
	if n == 0 {
		t.Fatalf("the counted-cost table gates no cell for %s", t.Name())
	}
}

// fleetRatio appends the row of larger-over-smaller ratios of two runs'
// readings: how far a count grows, or shrinks, with the fleet.
func (tab *costTable) fleetRatio(small, large *costRow) *costRow {
	r := tab.row(small.label[0], EngineKind(small.label[1]), "200 vs 2,000 nodes")
	r.ratio = true
	for col := colOffers; col < numCols; col++ {
		a, b := small.v[col], large.v[col]
		r.v[col] = max(a, b) / min(a, b)
	}
	return r
}

// log renders the table, each gated cell followed by its ceiling.
func (tab *costTable) log(t *testing.T) {
	rows := make([][]string, len(tab.rows))
	for i, r := range tab.rows {
		rows[i] = append(rows[i], r.label...)
		for col, v := range r.v {
			cell := ""
			if !math.IsNaN(v) {
				cell = r.format(col, v)
			}
			if r.max[col] > 0 {
				cell += " <= " + r.format(col, r.max[col])
			}
			rows[i] = append(rows[i], cell)
		}
	}
	t.Log("\n" + metrics.Table(costHeader, rows))
}

// wrapper stands between the RM and the scheduler it offers to.
type wrapper = func(*stack, yarn.Scheduler) yarn.Scheduler

// count calls f, which runs a scenario with wrap and returns the events
// it fired, and fills r's per-event columns: wrap puts a non-auditing
// offerProbe around the RM's scheduler. It returns the run's heap
// allocations and bytes, NaN under -race.
func count(t *testing.T, r *costRow, f func(wrap wrapper) uint64) (mallocs, bytes float64) {
	var stats probeStats
	var inner yarn.Scheduler
	wrap := func(s *stack, sched yarn.Scheduler) yarn.Scheduler {
		inner = sched
		return &offerProbe{t: t, s: s, inner: sched, stats: &stats}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events := float64(f(wrap))
	runtime.ReadMemStats(&after)
	r.v[colEvents] = events
	r.v[colOffers] = float64(stats.offers) / events
	var policy engine.SpeculationPolicy
	switch s := inner.(type) {
	case *engine.StockAM:
		policy = s.Speculation
	case *core.AM:
		policy = s.Speculation
	case *yarn.InterJob:
		r.v[colConsulted] = float64(consulted(s)) / events
	}
	if late, ok := policy.(*speculate.LATE); ok { // walked is unexported, so only a test reads it
		r.v[colWalked] = float64(reflect.ValueOf(late).Elem().FieldByName("walked").Int()) / events
	}
	mallocs, bytes = math.NaN(), math.NaN()
	if !raceEnabled {
		mallocs, bytes = float64(after.Mallocs-before.Mallocs), float64(after.TotalAlloc-before.TotalAlloc)
	}
	r.v[colAllocs] = mallocs / events
	return mallocs, bytes
}

// mustRun is run that fails the test on an error.
func mustRun(t *testing.T, sc Scenario, spec mr.JobSpec, eng Engine, wrap wrapper) *Result {
	res, err := run(sc, spec, eng, wrap)
	if err != nil {
		t.Fatalf("%s under %s: %v", sc.Name, eng, err)
	}
	return res
}

// maxAllocsPerEvent caps heap allocations per fired event on every run
// but the 2,000-node multi-job ones, whose FlexMap runs read 4.3–5.5
// (ROADMAP 14). The gated runs read 0.7–3.0, so about 2× the worst
// absorbs Go-version drift.
const maxAllocsPerEvent = 8

// costs is the counted-cost table, built once per test binary by the
// first test that checks it.
var costs *costTable

// countedCosts returns the counted-cost table, running its simulations
// on the first call.
func countedCosts(t *testing.T) *costTable {
	t.Helper()
	if costs == nil {
		costs = &costTable{}
		buildCosts(t, costs)
		costs.built = true
	}
	if !costs.built {
		t.Fatal("the counted-cost table's runs failed in an earlier test")
	}
	return costs
}

// TestCountedCosts is the counted-cost table: what a run pays, counted,
// not timed, so that no cell flakes. It logs the whole table and checks
// the cells no other test holds; each test below checks its own cells
// of the same runs.
func TestCountedCosts(t *testing.T) {
	tab := countedCosts(t)
	tab.log(t)
	tab.check(t)
}

// Offers per event stay flat as the fleet grows: an idle AM answers no
// offer, so a poke sweeps only the nodes that can land.
func TestOffersPerEventScaling(t *testing.T) { countedCosts(t).check(t) }

// LATE walks about one candidate per event on 2,000 nodes.
func TestSpeculationWalkPerEvent(t *testing.T) { countedCosts(t).check(t) }

// The inter-job walk consults a few jobs per event, not every job.
func TestInterJobWalkPerEvent(t *testing.T) { countedCosts(t).check(t) }

// A 50-node job allocates at most 8 times per event, with crashes and
// tracing on or off.
func TestAllocsPerEventCeiling(t *testing.T) { countedCosts(t).check(t) }

// A fair multi-job run on 200 nodes allocates at most 8 times per event.
func TestWorkloadAllocsPerEventCeiling(t *testing.T) { countedCosts(t).check(t) }

// The Fig. 8 cell allocates a few times per map attempt.
func TestAllocsPerMapAttempt(t *testing.T) { countedCosts(t).check(t) }

// The Fig. 8 cell's heap bytes per committed BU stay near its reading.
func TestFig8CellBytesPerBU(t *testing.T) { countedCosts(t).check(t) }

// FlexMap's bytes per job match on 200 and 2,000 nodes.
func TestJobBytesIndependentOfFleet(t *testing.T) { countedCosts(t).check(t) }

// buildCosts runs the table's simulations and fills tab. Its rows are
// scaled-down shapes of the benchmark's workloads, and each run fills
// every column it can:
//
//   - fleet (fleet-10k): one WordCount job over 2 BUs per node with n/4
//     reducers, at n = 200 and 2,000;
//   - multi-job (its 40-job, 200-node run is multijob-200's shape): the
//     fair mix of 8–24-BU WordCount jobs arriving at 24 jobs/s, 20 and 40
//     of them on 200 and 2,000 nodes;
//   - crash+trace (rack-2000): one job over 24 BUs per node with 12
//     reducers on 50 nodes, with crashes and tracing each off and on;
//   - fig8 (paper): WordCount's large input at scale 8 on the
//     multi-tenant cluster with 40% slow nodes.
//
// Count ceilings do not depend on the toolchain: each is at most its
// reading plus 25%. Allocation and byte ceilings leave room for
// Go-version drift, and are blank under -race.
func buildCosts(t *testing.T, tab *costTable) {
	kinds := []EngineKind{Hadoop, FlexMap}

	// An RM.Poke that sweeps despite an idle AM reads 58 offers per event
	// at n = 200 and 627 at 2,000. LATE's scan stops at the first attempt
	// younger than its minimum age (a full scan walks 112 entries per
	// event under FlexMap); Hadoop's endgame candidates are all mature.
	maxOffers := map[EngineKind]float64{Hadoop: 0.88, FlexMap: 0.53}
	maxWalked := map[EngineKind]float64{Hadoop: 16.1, FlexMap: 1.26}
	for _, kind := range kinds {
		var fleet []*costRow
		for _, n := range []int{200, 2000} {
			r := tab.row("fleet", kind, fmt.Sprintf("n=%d", n))
			sc := Scenario{Name: "fleet", Cluster: equivCluster(n), Seed: 42, InputSize: int64(n*2) * dfs.BUSize}
			count(t, r, func(wrap wrapper) uint64 { return mustRun(t, sc, wcSpec(t, n/4), Engine{Kind: kind}, wrap).SimEvents })
			tab.gate("TestOffersPerEventScaling", r, colOffers, maxOffers[kind])
			tab.gate("TestCountedCosts", r, colAllocs, maxAllocsPerEvent)
			if n == 2000 {
				tab.gate("TestSpeculationWalkPerEvent", r, colWalked, maxWalked[kind])
			}
			fleet = append(fleet, r)
		}
		tab.gate("TestOffersPerEventScaling", tab.fleetRatio(fleet[0], fleet[1]), colOffers, 2)
	}

	// A job's storage follows the nodes it touches, not the fleet, so
	// FlexMap's bytes per job match across fleets. Stock Hadoop's grow
	// with the idle fleet (ROADMAP 8(a)), and FlexMap's offers and
	// consultations per event too (ROADMAP 14): logged, not gated.
	maxConsulted := map[EngineKind]float64{Hadoop: 4.6, FlexMap: 5.8}
	for _, kind := range kinds {
		var fleet []*costRow
		for _, n := range []int{200, 2000} {
			var bytes [2]float64
			var r *costRow
			for i, jobs := range []int{20, 40} {
				r = tab.row("multi-job", kind, fmt.Sprintf("n=%d jobs=%d", n, jobs))
				sc := WorkloadScenario{
					Name: "multi-job", Cluster: equivCluster(n), Seed: 42, Policy: "fair",
					Pattern: workload.Pattern{Jobs: jobs, Rate: 24},
					Classes: []WorkloadClass{{Name: "wc", Weight: 1, MinBytes: 8 * dfs.BUSize, MaxBytes: 24 * dfs.BUSize,
						Engine: Engine{Kind: kind}, Spec: wcSpec(t, 4)}},
				}
				_, bytes[i] = count(t, r, func(wrap wrapper) uint64 {
					res, err := runWorkload(sc, wrap)
					if err != nil {
						t.Fatal(err)
					}
					if res.Completed != jobs {
						t.Fatalf("%s on %d nodes: %d of %d jobs completed", kind, n, res.Completed, jobs)
					}
					return res.SimEvents
				})
				if n == 200 {
					tab.gate("TestWorkloadAllocsPerEventCeiling", r, colAllocs, maxAllocsPerEvent)
				}
			}
			r.v[colJobBytes] = (bytes[1] - bytes[0]) / 20
			if n == 200 {
				tab.gate("TestInterJobWalkPerEvent", r, colConsulted, maxConsulted[kind])
			}
			fleet = append(fleet, r)
		}
		if ratio := tab.fleetRatio(fleet[0], fleet[1]); kind == FlexMap {
			tab.gate("TestJobBytesIndependentOfFleet", ratio, colJobBytes, 1.2)
		}
	}

	for _, kind := range kinds {
		for _, v := range []struct{ crashes, traced bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
			r := tab.row("crash+trace", kind, fmt.Sprintf("crashes=%v trace=%v", v.crashes, v.traced))
			sc := Scenario{Name: "crash+trace", Cluster: equivCluster(50), Seed: 42, InputSize: 50 * 24 * dfs.BUSize,
				Trace: trace.Options{Collect: v.traced}}
			if v.crashes {
				sc.Faults = faults.Plan{CrashRate: 1}
			}
			count(t, r, func(wrap wrapper) uint64 { return mustRun(t, sc, wcSpec(t, 12), Engine{Kind: kind}, wrap).SimEvents })
			tab.gate("TestAllocsPerEventCeiling", r, colAllocs, maxAllocsPerEvent)
		}
	}

	// The fig8 cell counts everything the paper sequence pays per
	// simulation, DFS placement and metrics.Summarize included. The
	// per-attempt ceilings leave about 40% for drift, the byte ceilings
	// about 10%, so that a per-BU or per-task map on the run path trips.
	p, err := puma.GetProfile(puma.WordCount)
	if err != nil {
		t.Fatal(err)
	}
	fig8 := func() (*cluster.Cluster, cluster.Interferer) { return cluster.MultiTenant40(0.40, 42) }
	c, _ := fig8()
	spec := wcSpec(t, c.TotalSlots())
	for _, cell := range []struct {
		eng                 Engine
		maxAllocs, maxBytes float64
	}{
		{Engine{Kind: Hadoop, SplitMB: 64}, 4, 275},
		{Engine{Kind: FlexMap}, 6.3, 330},
	} {
		r := tab.row("fig8", cell.eng.Kind, cell.eng.String())
		sc := Scenario{Name: "fig8", Cluster: fig8, Seed: 42, InputSize: int64(p.LargeGB) * GB / 8}
		var res *Result
		mallocs, bytes := count(t, r, func(wrap wrapper) uint64 {
			res = mustRun(t, sc, spec, cell.eng, wrap)
			metrics.Summarize(res.JobResult)
			return res.SimEvents
		})
		attempts, bus := 0, 0
		for _, a := range res.JobResult.Attempts {
			if a.Type == mr.MapTask {
				attempts++
			}
		}
		for _, n := range res.BUCommits {
			bus += n
		}
		r.v[colMapAllocs], r.v[colBUBytes] = mallocs/float64(attempts), bytes/float64(bus)
		tab.gate("TestCountedCosts", r, colAllocs, maxAllocsPerEvent)
		tab.gate("TestAllocsPerMapAttempt", r, colMapAllocs, cell.maxAllocs)
		tab.gate("TestFig8CellBytesPerBU", r, colBUBytes, cell.maxBytes)
	}
}
