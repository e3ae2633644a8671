package runner

import (
	"fmt"
	"runtime"
	"testing"

	"flexmap/internal/dfs"
	"flexmap/internal/faults"
	"flexmap/internal/trace"
)

// maxAllocsPerEvent is the absolute ceiling on heap allocations per fired
// event in the single-job cells below, which allocate 6–12 today. The
// headroom absorbs Go-version drift; a hot path that starts allocating
// per event or per node several times over still trips it.
const maxAllocsPerEvent = 35

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
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := Run(sc, spec, Engine{Kind: kind})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				perEvent := float64(after.Mallocs-before.Mallocs) / float64(res.SimEvents)
				t.Logf("%s: %d events, %.1f allocs/event", name, res.SimEvents, perEvent)
				if perEvent > maxAllocsPerEvent {
					t.Errorf("%s: %.1f allocs/event, ceiling %d", name, perEvent, maxAllocsPerEvent)
				}
			}
		}
	}
}
