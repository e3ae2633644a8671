package runner

import (
	"fmt"
	"runtime"
	"testing"

	"flexmap/internal/dfs"
	"flexmap/internal/faults"
	"flexmap/internal/trace"
	"flexmap/internal/workload"
)

// maxAllocsPerEvent is the absolute ceiling on heap allocations per fired
// event in the cells below, which allocate 4.7–8.8 today (the worst is
// workload/hadoop). About 2× the worst cell absorbs Go-version drift; a
// hot path that starts allocating per event or per node still trips it.
const maxAllocsPerEvent = 18

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
