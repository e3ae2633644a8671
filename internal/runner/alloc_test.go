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
// event in the cells below, which allocate 1.1–3.9 today (the worst is
// flexmap with crashes and tracing; 4.2 before per-job state was sized
// to the job, 7.3 before map and reduce attempts took one struct and one
// callback each). About 2× the worst cell absorbs Go-version drift; a
// hot path that starts allocating per event or per node still trips it.
const maxAllocsPerEvent = 8

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
// flexmap 4.5 today (flexmap 5.1 before the tracker cut its per-host
// lists from one array; 18.8 and 14.5 when an attempt's work, container
// and callbacks were allocated one by one): an attempt is one struct
// from a chunk and one bound callback, and FlexMap adds its bound split
// and task name. The ceilings leave about 40% for Go-version drift.
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
		{Engine{Kind: FlexMap}, 6.3},
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
// metrics.Summarize. hadoop-64m allocates 250 B/BU and flexmap 298 today
// (flexmap 328 while its AM also kept a per-task size record; 312 and 392
// before the DFS kept its metadata per placement group, not per BU;
// flexmap 447 before the tracker cut its per-host lists from one array;
// 415 and 477 before attempts came from chunks, and about 600 and 660
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
		{Engine{Kind: Hadoop, SplitMB: 64}, 275},
		{Engine{Kind: FlexMap}, 330},
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

// TestJobBytesIndependentOfFleet is the counted gate on per-job state: a
// job's storage follows the nodes it touches, not the fleet. It runs a
// fair-policy workload of WordCount jobs of 64–192 MB, as the benchmark's
// multijob-200 does, on 200 and on 2,000 two-slot nodes, and takes the
// bytes of 40 jobs less the bytes of 20, so that run-level state (the
// cluster, the RM, the DFS) cancels out. FlexMap's bytes per job on the
// two fleets must be within 1.2× of each other: they read about 41 KB on
// both, where per-job arrays over the fleet made them 99 KB and 462 KB.
//
// Stock Hadoop is logged, not gated. Its delay scheduling arms a
// locality wait, and schedules the timer event that ends it, on every
// node offered while its splits are pending (ROADMAP 8(a)), so its bytes
// grow with the idle fleet by design: about 21 KB per job on 200 nodes
// and 82 KB on 2,000, most of it those events.
func TestJobBytesIndependentOfFleet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds its own allocations")
	}
	spec := wcSpec(t, 4)
	bytes := func(kind EngineKind, nodes, jobs int) float64 {
		sc := WorkloadScenario{
			Name:    "job-bytes",
			Cluster: equivCluster(nodes),
			Seed:    42,
			Pattern: workload.Pattern{Jobs: jobs, Rate: 24},
			Classes: []WorkloadClass{{
				Name: "wc", Weight: 1, MinBytes: 8 * dfs.BUSize, MaxBytes: 24 * dfs.BUSize,
				Engine: Engine{Kind: kind}, Spec: spec,
			}},
			Policy: "fair",
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunWorkload(sc)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != jobs {
			t.Fatalf("%s on %d nodes: %d of %d jobs completed", kind, nodes, res.Completed, jobs)
		}
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	for _, kind := range []EngineKind{FlexMap, Hadoop} {
		perJob := func(nodes int) float64 { return (bytes(kind, nodes, 40) - bytes(kind, nodes, 20)) / 20 }
		small, large := perJob(200), perJob(2000)
		ratio := max(small, large) / min(small, large)
		t.Logf("%s: %.0f B/job on 200 nodes, %.0f on 2,000 (%.2f× apart)", kind, small, large, ratio)
		if kind == FlexMap && ratio > 1.2 {
			t.Errorf("%s: %.0f B/job on 200 nodes, %.0f on 2,000: %.2f× apart, want ≤ 1.2×", kind, small, large, ratio)
		}
	}
}
