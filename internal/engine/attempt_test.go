package engine

import (
	"slices"
	"strings"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/net"
	"flexmap/internal/sim"
)

// TestEmbeddedWorkReplansLikeHeapWork runs an attempt's compute, whose
// Work is embedded in the attempt, beside a heap Work of the same units
// started at the same instant on an identical node. Both nodes slow down
// and recover mid-compute: progress at every probe and the completion
// instant agree bit for bit.
func TestEmbeddedWorkReplansLikeHeapWork(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	var doneAt, heapDoneAt sim.Time
	a := launchOne(t, h, 8, func(x *MapAttempt) {
		doneAt = h.eng.Now()
		x.Container.Release()
	})
	var w *Work
	start := sim.Time(Overhead)
	h.eng.At(start, "heap-start", func() {
		if a.phase != phaseCompute {
			t.Fatalf("attempt in phase %d at the end of its overhead, want compute", a.phase)
		}
		w = startWork(h.driver.Exec, h.clus.Node(1), a.work.total, func() { heapDoneAt = h.eng.Now() })
	})
	for i, f := range []float64{0.5, 0.25, 1} {
		at := start + sim.Time(i+1)*0.5
		h.eng.At(at, "speed", func() {
			if a.phase != phaseCompute {
				t.Errorf("attempt left compute before the speed change at %v", at)
			}
			h.clus.Node(0).SetInterference(f)
			h.clus.Node(1).SetInterference(f)
		})
		h.eng.At(at+0.25, "probe", func() {
			now := h.eng.Now()
			if got, want := a.work.ProcessedUnits(now), w.ProcessedUnits(now); got != want {
				t.Errorf("at %v the attempt processed %v units, the heap work %v", now, got, want)
			}
		})
	}
	h.eng.Run()
	if !a.Finished() || !w.finished {
		t.Fatal("a work did not finish")
	}
	if doneAt != heapDoneAt {
		t.Fatalf("attempt finished at %v, heap work at %v", doneAt, heapDoneAt)
	}
}

// TestKillInEachPhaseSilencesTheAttempt kills an attempt in its overhead,
// fetch and compute phases, under the flat model and under the fabric.
// The attempt's one callback never runs again: no event of the attempt
// fires after the kill, a later speed change does not re-plan its work,
// no fetch flow stays active, and its stale handles cancel nothing once
// the engine has recycled their events.
func TestKillInEachPhaseSilencesTheAttempt(t *testing.T) {
	for _, fabric := range []bool{false, true} {
		for _, tc := range []struct {
			phase attemptPhase
			at    sim.Time
		}{{phaseOverhead, 1}, {phaseFetch, 2.04}, {phaseCompute, 2.5}} {
			c := cluster.Homogeneous(2)
			if fabric {
				c.Topology = &cluster.TopologySpec{HostsPerRack: 1}
			}
			h := newHarness(t, c, 16, wcSpec(0))
			var fab *net.Fabric
			if fabric {
				var err error
				if fab, err = net.New(h.eng, c); err != nil {
					t.Fatal(err)
				}
				h.driver.Net = fab
			}
			a := launchFetching(t, h, "fetch-0")
			var stale []sim.Handle
			var fired []string
			h.eng.At(tc.at, "kill", func() {
				if a.phase != tc.phase {
					t.Fatalf("fabric=%v: attempt in phase %d at %v, want %d", fabric, a.phase, tc.at, tc.phase)
				}
				if !a.Kill() {
					t.Fatal("kill reported the attempt already done")
				}
				a.Container.Release()
				stale = []sim.Handle{a.phaseEv, a.work.ev}
				h.eng.SetFireObserver(func(_ sim.Time, name string) { fired = append(fired, name) })
			})
			h.eng.At(tc.at+5, "slow", func() { h.clus.Node(0).SetInterference(0.5) })
			sentinel := false
			h.eng.At(tc.at+6, "arm", func() {
				h.eng.After(1, "sentinel", func() { sentinel = true })
				for _, s := range stale {
					s.Cancel()
				}
			})
			h.eng.Run()
			for _, name := range fired {
				if strings.HasPrefix(name, "map-") || name == "work-done" || name == "net-flow-done" {
					t.Errorf("fabric=%v phase %d: %q fired after the kill", fabric, tc.phase, name)
				}
			}
			if !sentinel {
				t.Errorf("fabric=%v phase %d: a stale handle of the killed attempt canceled a later event", fabric, tc.phase)
			}
			if a.Finished() || !a.Killed() {
				t.Errorf("fabric=%v phase %d: attempt finished=%v killed=%v", fabric, tc.phase, a.Finished(), a.Killed())
			}
			if n := len(h.driver.Exec.running[0]); n != 0 {
				t.Errorf("fabric=%v phase %d: %d works still run on the node", fabric, tc.phase, n)
			}
			if fab != nil && fab.ActiveFlows() != 0 {
				t.Errorf("fabric=%v phase %d: %d fetch flows still active", fabric, tc.phase, fab.ActiveFlows())
			}
			if recs := h.driver.Result.Attempts; len(recs) != 1 || !recs[0].Killed {
				t.Errorf("fabric=%v phase %d: records %+v, want one killed", fabric, tc.phase, recs)
			}
		}
	}
}

// TestReduceCrashInEachPhaseSilencesTheRun crashes a reduce attempt
// while its reduce-fetch event is pending, mid-shuffle under the fabric,
// and mid-compute. As for a map attempt, its one callback never runs
// again and its stale handles cancel nothing.
func TestReduceCrashInEachPhaseSilencesTheRun(t *testing.T) {
	for _, tc := range []struct {
		fabric bool
		phase  attemptPhase
		at     sim.Time
	}{
		{false, phaseOverhead, 1}, {false, phaseCompute, 2.5},
		{true, phaseOverhead, 1}, {true, phaseFetch, 2.005}, {true, phaseCompute, 2.5},
	} {
		c := cluster.Homogeneous(2)
		if tc.fabric {
			c.Topology = &cluster.TopologySpec{HostsPerRack: 1}
		}
		h := newHarness(t, c, 16, wcSpec(1))
		var fab *net.Fabric
		if tc.fabric {
			var err error
			if fab, err = net.New(h.eng, c); err != nil {
				t.Fatal(err)
			}
			h.driver.Net = fab
		}
		// Node 1 holds all map output, so node 0's reducer shuffles it.
		f, _ := h.store.File("input")
		h.driver.CommitOutputForBUs(1, f.BUs[:8])
		h.driver.MapsDone()
		var stale []sim.Handle
		var fired []string
		h.eng.At(tc.at, "crash", func() {
			runs := h.driver.runningReduce[0]
			if len(runs) != 1 || runs[0].phase != tc.phase {
				t.Fatalf("fabric=%v: want one reduce in phase %d at %v", tc.fabric, tc.phase, tc.at)
			}
			rr := runs[0]
			rr.crash()
			stale = []sim.Handle{rr.ev, rr.work.ev}
			h.eng.SetFireObserver(func(_ sim.Time, name string) { fired = append(fired, name) })
		})
		sentinel := false
		h.eng.At(tc.at+6, "arm", func() {
			h.eng.After(1, "sentinel", func() { sentinel = true })
			for _, s := range stale {
				s.Cancel()
			}
		})
		h.eng.Run()
		for _, name := range fired {
			if name == "reduce-fetch" || name == "work-done" || name == "net-flow-done" {
				t.Errorf("fabric=%v phase %d: %q fired after the crash", tc.fabric, tc.phase, name)
			}
		}
		if !sentinel {
			t.Errorf("fabric=%v phase %d: a stale handle of the crashed reduce canceled a later event", tc.fabric, tc.phase)
		}
		if n := len(h.driver.Exec.running[0]) + len(h.driver.runningReduce[0]); n != 0 {
			t.Errorf("fabric=%v phase %d: %d works or reduces still run on the node", tc.fabric, tc.phase, n)
		}
		if fab != nil && fab.ActiveFlows() != 0 {
			t.Errorf("fabric=%v phase %d: %d shuffle flows still active", tc.fabric, tc.phase, fab.ActiveFlows())
		}
		if recs := h.driver.Result.Attempts; len(recs) != 1 || !recs[0].Crashed {
			t.Errorf("fabric=%v phase %d: records %+v, want one crashed", tc.fabric, tc.phase, recs)
		}
	}
}

// TestAttemptChunksNeverAlias launches attempts across several chunks
// and crashes every other one mid-compute. Every attempt, its work and its container have
// their own storage, and no later launch overwrites an earlier attempt,
// its record or its crash snapshot.
func TestAttemptChunksNeverAlias(t *testing.T) {
	const n = 3*minChunk + 5
	h := newHarness(t, cluster.Homogeneous(4), n, wcSpec(0))
	h.driver.expectedMaps = 5 // a chunk of 5, then minChunk-sized ones
	f, _ := h.store.File("input")
	type want struct {
		task                 string
		bus, done, remaining []dfs.BUID
		processed            int64
		crashed              bool
	}
	var attempts []*MapAttempt
	var wants []want
	var records []string
	for i := range n {
		at := sim.Time(10 * i)
		h.eng.At(at, "launch", func() {
			bus := f.BUs[i:min(i+1+i%4, n)]
			a := h.driver.LaunchMap(MapLaunch{
				Task: MapTaskName(TaskID(i)), TaskID: TaskID(i), Node: h.clus.Node(cluster.NodeID(i % 4)),
				BUs: bus, LocalBUs: len(bus),
				OnDone: func(x *MapAttempt) {
					records = append(records, x.Task)
					x.Container.Release()
				},
			})
			attempts = append(attempts, a)
			wants = append(wants, want{task: a.Task, bus: bus})
		})
		if i%2 == 1 {
			h.eng.At(at+sim.Time(Overhead)+0.5, "crash", func() {
				a := attempts[i]
				if a.phase != phaseCompute {
					t.Fatalf("attempt %d in phase %d at its crash, want compute", i, a.phase)
				}
				a.kill(true)
				a.Container.Release()
				records = append(records, a.Task)
				w := &wants[i]
				w.done, w.remaining = a.CrashSplit()
				w.done, w.remaining = slices.Clone(w.done), slices.Clone(w.remaining)
				w.processed, w.crashed = a.CrashProcessedBytes(), true
			})
		}
	}
	h.eng.Run()

	seen := map[any]int{}
	for i, a := range attempts {
		for _, p := range []any{a, &a.work, &a.Container} {
			if j, dup := seen[p]; dup {
				t.Fatalf("attempts %d and %d share storage", j, i)
			}
			seen[p] = i
		}
		w := wants[i]
		if a.Task != w.task || !slices.Equal(a.BUs, w.bus) || a.Node.ID != cluster.NodeID(i%4) {
			t.Errorf("attempt %d reads %s %v on node %d, launched as %s %v on node %d",
				i, a.Task, a.BUs, a.Node.ID, w.task, w.bus, i%4)
		}
		if a.Crashed() != w.crashed || a.Finished() == w.crashed {
			t.Errorf("attempt %d crashed=%v finished=%v, want crashed=%v", i, a.Crashed(), a.Finished(), w.crashed)
		}
		if w.crashed {
			done, remaining := a.CrashSplit()
			if !slices.Equal(done, w.done) || !slices.Equal(remaining, w.remaining) || a.CrashProcessedBytes() != w.processed {
				t.Errorf("attempt %d crash snapshot changed to %v|%v %d, was %v|%v %d",
					i, done, remaining, a.CrashProcessedBytes(), w.done, w.remaining, w.processed)
			}
		}
	}
	if h.driver.launched != n {
		t.Errorf("driver handed out %d attempts, want %d", h.driver.launched, n)
	}
	recs := h.driver.Result.Attempts
	if len(recs) != len(records) {
		t.Fatalf("%d records, want %d", len(recs), len(records))
	}
	for i, r := range recs {
		if r.Task != records[i] {
			t.Errorf("record %d is %s, want %s", i, r.Task, records[i])
		}
	}
}

// BenchmarkMapAttemptLifecycle runs one fully-local map attempt through
// launch, overhead, compute and completion, acquiring and releasing its
// container: allocs/op is what one map attempt costs.
func BenchmarkMapAttemptLifecycle(b *testing.B) {
	h := newHarness(b, cluster.Homogeneous(2), 8, wcSpec(0))
	f, _ := h.store.File("input")
	node := h.clus.Node(0)
	l := MapLaunch{
		Task: "map-0000", Node: node, BUs: f.BUs, LocalBUs: len(f.BUs),
		OnDone: func(a *MapAttempt) { a.Container.Release() },
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.driver.LaunchMap(l)
		h.eng.Run()
		h.driver.Result.Attempts = h.driver.Result.Attempts[:0]
	}
}
