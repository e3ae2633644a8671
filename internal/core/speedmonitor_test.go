package core

import (
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/engine"
	"flexmap/internal/mr"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/yarn"
)

// monitorHarness runs a driver with manually-launched attempts so the
// heartbeat sampling can be observed.
type monitorHarness struct {
	eng    *sim.Engine
	clus   *cluster.Cluster
	store  *dfs.Store
	rm     *yarn.RM
	driver *engine.Driver
}

func newMonitorHarness(t *testing.T, specs []cluster.NodeSpec) *monitorHarness {
	t.Helper()
	eng := sim.New()
	c := cluster.NewCluster("mon", specs)
	store := dfs.NewStore(c, len(specs), randutil.New(3))
	if _, err := store.AddFile("input", 64*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	rm := yarn.NewRM(eng, c)
	spec := mr.JobSpec{Name: "wc", InputFile: "input", MapCost: 1, ShuffleRatio: 0, ReduceCost: 0}
	d, err := engine.NewDriver(engine.NewExecutor(eng, c, engine.BaseIPS), store, rm, spec)
	if err != nil {
		t.Fatal(err)
	}
	return &monitorHarness{eng: eng, clus: c, store: store, rm: rm, driver: d}
}

// launchManual starts a map attempt of n BUs on a node outside any AM.
func (h *monitorHarness) launchManual(t *testing.T, node cluster.NodeID, bus int, onDone func(*engine.MapAttempt)) {
	t.Helper()
	f, _ := h.store.File("input")
	n := h.clus.Node(node)
	if onDone == nil {
		onDone = func(a *engine.MapAttempt) { a.Container.Release() }
	}
	h.driver.LaunchMap(engine.MapLaunch{
		Task:     "manual",
		Node:     n,
		BUs:      f.BUs[:bus],
		LocalBUs: bus,
		OnDone:   onDone,
	})
}

func TestMonitorNoReportsMeansUnknown(t *testing.T) {
	h := newMonitorHarness(t, []cluster.NodeSpec{{}, {}})
	m := NewSpeedMonitor(h.driver)
	if m.GetSpeed(0) != 0 {
		t.Fatal("speed should be 0 before any report")
	}
	if m.RelativeSpeed(0) != 1.0 || m.RelativeSpeed(1) != 1.0 {
		t.Fatal("unmeasured nodes should be relative speed 1.0")
	}
	if m.Capacity(0) != 1.0 {
		t.Fatal("unmeasured nodes should have capacity 1.0")
	}
	m.Stop()
}

func TestMonitorHeartbeatSampling(t *testing.T) {
	h := newMonitorHarness(t, []cluster.NodeSpec{{BaseSpeed: 1, Slots: 2}})
	m := NewSpeedMonitor(h.driver)
	// A 64 MB task at 10 MB/s: compute starts at t=2, so by the second
	// heartbeat (t=10) it has processed 8s×10MB/s = 80% of input... it
	// finishes at 8.4s. Use 8 BUs so it is still running at t=5.
	h.launchManual(t, 0, 8, nil)
	h.eng.RunUntil(5.5)
	got := m.GetSpeed(0)
	// At t=5: processed (5-2)s × 10 MB/s = 30 MB over 5 s elapsed → 6 MB/s.
	wantLo, wantHi := 5.5*1024*1024.0, 6.5*1024*1024.0
	if got < wantLo || got > wantHi {
		t.Fatalf("heartbeat IPS = %.1f MB/s, want ≈6", got/1024/1024)
	}
	m.Stop()
	h.eng.Run()
}

func TestMonitorCompletionReports(t *testing.T) {
	h := newMonitorHarness(t, []cluster.NodeSpec{{BaseSpeed: 2, Slots: 2}, {BaseSpeed: 1, Slots: 2}})
	m := NewSpeedMonitor(h.driver)
	done := 0
	onDone := func(a *engine.MapAttempt) {
		a.Container.Release()
		m.ReportCompletion(a)
		done++
	}
	h.launchManual(t, 0, 4, onDone) // fast node
	h.launchManual(t, 1, 4, onDone) // slow node
	// The heartbeat ticker re-arms until the job finishes; bound the run
	// and stop it explicitly since no AM drives this harness.
	h.eng.RunUntil(60)
	m.Stop()
	h.eng.Run()
	if done != 2 {
		t.Fatalf("%d attempts completed, want 2", done)
	}
	fast, slow := m.GetSpeed(0), m.GetSpeed(1)
	if fast <= slow {
		t.Fatalf("fast node IPS %.1f ≤ slow node %.1f", fast, slow)
	}
	if rel0, rel1 := m.RelativeSpeed(0), m.RelativeSpeed(1); rel0 <= 1.0 || rel1 != 1.0 {
		t.Fatalf("relative speeds wrong: %v, %v", rel0, rel1)
	}
	if cap0, cap1 := m.Capacity(0), m.Capacity(1); cap0 != 1.0 || cap1 >= 1.0 {
		t.Fatalf("normalized capacities wrong: %v, %v", cap0, cap1)
	}
}

// Regression for the speculative-sampling bug: a speculative duplicate
// reading mostly remote BUs is network-bound, and its completion and
// heartbeat samples used to enter the executing node's window — one
// remote-heavy speculation dragged a fast node's estimate toward the
// network rate and mis-sized its next tasks.
func TestMonitorIgnoresRemoteHeavySpeculation(t *testing.T) {
	h := newMonitorHarness(t, []cluster.NodeSpec{{BaseSpeed: 4, Slots: 2}, {BaseSpeed: 1, Slots: 2}})
	m := NewSpeedMonitor(h.driver)
	onDone := func(a *engine.MapAttempt) {
		a.Container.Release()
		m.ReportCompletion(a)
	}
	// A node-local attempt on the fast node establishes its speed.
	h.launchManual(t, 0, 4, onDone)
	h.eng.RunUntil(60)
	base := m.GetSpeed(0)
	if base <= 0 {
		t.Fatal("no baseline speed for the fast node")
	}
	// A speculative duplicate on the fast node reading its whole split
	// remotely: neither its heartbeat samples while fetching nor its
	// completion sample may perturb the node's window.
	f, _ := h.store.File("input")
	n := h.clus.Node(0)
	h.driver.LaunchMap(engine.MapLaunch{
		Task:        "spec",
		Node:        n,
		BUs:         f.BUs[8:16],
		LocalBUs:    0,
		Speculative: true,
		OnDone:      onDone,
	})
	h.eng.RunUntil(300)
	m.Stop()
	h.eng.Run()
	if got := m.GetSpeed(0); got != base {
		t.Fatalf("remote-heavy speculation changed fast node speed: %.2f → %.2f MB/s",
			base/1024/1024, got/1024/1024)
	}
}

func TestMonitorWindowAveraging(t *testing.T) {
	h := newMonitorHarness(t, []cluster.NodeSpec{{}})
	m := NewSpeedMonitor(h.driver)
	// Push more than the window; only the last 5 count.
	for _, v := range []float64{100, 200, 10, 20, 30, 40, 50} {
		m.push(0, v)
	}
	want := (10.0 + 20 + 30 + 40 + 50) / 5
	if got := m.GetSpeed(0); got != want {
		t.Fatalf("windowed speed = %v, want %v", got, want)
	}
	m.Stop()
}

func TestMonitorStopsWithJob(t *testing.T) {
	h := newMonitorHarness(t, []cluster.NodeSpec{{}})
	NewSpeedMonitor(h.driver)
	h.launchManual(t, 0, 1, func(a *engine.MapAttempt) {
		a.Container.Release()
	})
	// Manually finish the job: heartbeats must stop so the queue drains.
	h.eng.RunUntil(4)
	h.driver.MapsDone()
	end := h.eng.Run()
	if end > 100 {
		t.Fatalf("heartbeat ticker kept the engine alive until %v", end)
	}
}

// TestMonitorExtremesMatchRecount runs random push and ResetNode
// sequences over a few nodes, with samples from a small set so that
// windows tie at an extreme, and resets aimed at the node holding one.
// After every step, the memoized slowest and fastest speeds must equal
// a recount of the windows.
func TestMonitorExtremesMatchRecount(t *testing.T) {
	rng := randutil.New(23)
	m := &SpeedMonitor{}
	samples := []float64{0, 1, 2, 3, 5, 8, 1e-3, 1e6}
	drops, folds := 0, 0
	for step := 0; step < 20000; step++ {
		// One to three changes per step, so some land on a dropped memo.
		for ops := 1 + rng.Intn(3); ops > 0; ops-- {
			id := cluster.NodeID(rng.Intn(6))
			slowest, fastest := m.slowest, m.fastest
			switch rng.Intn(8) {
			case 0:
				m.ResetNode(id)
			case 1:
				// Reset the node that holds an extreme, if one does.
				m.samples.Each(func(n cluster.NodeID, r *ipsRing) {
					if r.avg > 0 && (r.avg == slowest || r.avg == fastest) {
						id = n
					}
				})
				m.ResetNode(id)
			default:
				m.push(id, samples[rng.Intn(len(samples))])
			}
			if m.extValid {
				folds++
			} else {
				drops++
			}
		}
		var wantSlow, wantFast float64
		m.samples.Each(func(_ cluster.NodeID, r *ipsRing) {
			if s := r.mean(); s > 0 {
				if wantSlow == 0 || s < wantSlow {
					wantSlow = s
				}
				wantFast = max(wantFast, s)
			}
		})
		if slow, fast := m.extremes(); slow != wantSlow || fast != wantFast {
			t.Fatalf("step %d: extremes (%v, %v), recount (%v, %v)", step, slow, fast, wantSlow, wantFast)
		}
	}
	if drops == 0 || folds == 0 {
		t.Fatalf("%d changes dropped the memo and %d folded into it; want both", drops, folds)
	}
	t.Logf("%d changes folded, %d dropped the memo", folds, drops)
}
