package runner

import (
	"fmt"
	"runtime"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/faults"
	"flexmap/internal/metrics"
	"flexmap/internal/mr"
	"flexmap/internal/puma"
	"flexmap/internal/trace"
	"flexmap/internal/workload"
)

// maxAllocsPerEvent is the absolute ceiling on heap allocations per fired
// event in the cells below, which allocate 1.2–4.2 today (the worst is
// flexmap with crashes and tracing; 7.3 before map and reduce attempts
// took one struct and one callback each). About 2× the worst cell
// absorbs Go-version drift; a hot path that starts allocating per event
// or per node still trips it.
const maxAllocsPerEvent = 9

// TestAllocsPerEventCeiling runs one WordCount job, 24 BUs per node and
// 12 reducers, on 50 heterogeneous two-slot nodes under both engines,
// with crashes and tracing each off and on. Each cell counts the heap
// allocations its Run makes and fails above maxAllocsPerEvent per event.
func TestAllocsPerEventCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds its own allocations")
	}
	const nodes, busPerNode = 50, 24
	spec := wcSpec(t, nodes/4)
	for _, kind := range []EngineKind{Hadoop, FlexMap} {
		for _, crashes := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("%s/crashes=%v/trace=%v", kind, crashes, traced)
				sc := Scenario{Name: name, Cluster: equivCluster(nodes), Seed: 42, InputSize: nodes * busPerNode * dfs.BUSize}
				if crashes {
					sc.Faults = faults.Plan{CrashRate: 1}
				}
				if traced {
					sc.Trace = trace.Options{Collect: true}
				}
				checkAllocsPerEvent(t, name, func() (uint64, error) {
					res, err := Run(sc, spec, Engine{Kind: kind})
					if err != nil {
						return 0, err
					}
					return res.SimEvents, nil
				})
			}
		}
	}
}

// TestWorkloadAllocsPerEventCeiling holds a fair-policy workload of 12
// concurrent WordCount jobs on the same 50 nodes to the same ceiling,
// under both engines. Every RM poke offers each node to the inter-job
// scheduler, so an offer path that allocates per offer trips it.
func TestWorkloadAllocsPerEventCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds its own allocations")
	}
	spec := wcSpec(t, 4)
	for _, kind := range []EngineKind{Hadoop, FlexMap} {
		name := "workload/" + string(kind)
		sc := WorkloadScenario{
			Name:    name,
			Cluster: equivCluster(50),
			Seed:    42,
			Pattern: workload.Pattern{Jobs: 12, Rate: 24},
			Classes: []WorkloadClass{{
				Name: "wc", Weight: 1, MinBytes: 8 * dfs.BUSize, MaxBytes: 24 * dfs.BUSize,
				Engine: Engine{Kind: kind}, Spec: spec,
			}},
			Policy: "fair",
		}
		checkAllocsPerEvent(t, name, func() (uint64, error) {
			res, err := RunWorkload(sc)
			if err != nil {
				return 0, err
			}
			return res.SimEvents, nil
		})
	}
}

// checkAllocsPerEvent counts the heap allocations run makes and fails
// above maxAllocsPerEvent per event that run reports firing.
func checkAllocsPerEvent(t *testing.T, name string, run func() (events uint64, err error)) {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events, err := run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%s: %d events, %.1f allocs/event", name, events, perEvent)
	if perEvent > maxAllocsPerEvent {
		t.Errorf("%s: %.1f allocs/event, ceiling %d", name, perEvent, maxAllocsPerEvent)
	}
}

// TestAllocsPerMapAttempt runs one Fig. 8 cell, WordCount's large input
// at scale 8 on the multi-tenant cluster with 40% slow nodes, under stock
// Hadoop with 64 MB splits and under FlexMap, and counts every heap
// allocation of the run, DFS placement and set-up included, per map
// attempt the run launched. hadoop-64m allocates 2.8 per attempt and
// flexmap 5.1 today (18.8 and 14.5 when an attempt's work, container and
// callbacks were allocated one by one): an attempt is one struct from a
// chunk and one bound callback, and FlexMap adds its bound split and task
// name. The ceilings leave about 40% for Go-version drift, so one more
// allocation per attempt trips them.
func TestAllocsPerMapAttempt(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds its own allocations")
	}
	p, err := puma.GetProfile(puma.WordCount)
	if err != nil {
		t.Fatal(err)
	}
	factory := func() (*cluster.Cluster, cluster.Interferer) { return cluster.MultiTenant40(0.40, 42) }
	c, _ := factory()
	spec := wcSpec(t, c.TotalSlots())
	sc := Scenario{Name: "fig8-cell", Cluster: factory, Seed: 42, InputSize: int64(p.LargeGB) * GB / 8}
	for _, cell := range []struct {
		eng     Engine
		ceiling float64
	}{
		{Engine{Kind: Hadoop, SplitMB: 64}, 4},
		{Engine{Kind: FlexMap}, 7},
	} {
		eng := cell.eng
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(sc, spec, eng)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		attempts := 0
		for _, a := range res.JobResult.Attempts {
			if a.Type == mr.MapTask {
				attempts++
			}
		}
		perAttempt := float64(after.Mallocs-before.Mallocs) / float64(attempts)
		t.Logf("%s: %d map attempts, %.2f allocs/attempt", eng, attempts, perAttempt)
		if perAttempt > cell.ceiling {
			t.Errorf("%s: %.2f allocations per map attempt, ceiling %.1f", eng, perAttempt, cell.ceiling)
		}
	}
}

// TestFig8CellBytesPerBU holds one Fig. 8 cell, WordCount's large input
// at scale 8 on the multi-tenant cluster with 40% slow nodes, to a byte
// budget per committed BU. It counts everything the paper sequence pays
// per simulation: DFS placement, the run and its result, and
// metrics.Summarize. hadoop-64m allocates 312 B/BU and flexmap 447 today
// (415 and 477 before attempts came from chunks, and about 600 and 660
// before per-task and per-BU state became slices); the ceilings leave
// about 10% for Go-version drift, so a per-BU or per-task map on the run
// path trips them.
func TestFig8CellBytesPerBU(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds its own allocations")
	}
	p, err := puma.GetProfile(puma.WordCount)
	if err != nil {
		t.Fatal(err)
	}
	factory := func() (*cluster.Cluster, cluster.Interferer) { return cluster.MultiTenant40(0.40, 42) }
	c, _ := factory()
	spec := wcSpec(t, c.TotalSlots())
	sc := Scenario{Name: "fig8-cell", Cluster: factory, Seed: 42, InputSize: int64(p.LargeGB) * GB / 8}
	for _, cell := range []struct {
		eng     Engine
		ceiling float64
	}{
		{Engine{Kind: Hadoop, SplitMB: 64}, 345},
		{Engine{Kind: FlexMap}, 495},
	} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(sc, spec, cell.eng)
		if err != nil {
			t.Fatalf("%s: %v", cell.eng, err)
		}
		metrics.Summarize(res.JobResult)
		runtime.ReadMemStats(&after)
		bus := 0
		for _, n := range res.BUCommits {
			bus += n
		}
		perBU := float64(after.TotalAlloc-before.TotalAlloc) / float64(bus)
		t.Logf("%s: %d BUs committed, %.0f B/BU", cell.eng, bus, perBU)
		if perBU > cell.ceiling {
			t.Errorf("%s: %.0f bytes allocated per committed BU, ceiling %.0f", cell.eng, perBU, cell.ceiling)
		}
	}
}
