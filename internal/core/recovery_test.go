package core

import (
	"strings"
	"testing"

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

// flexHarness wires a FlexMap job with its event trace collected but
// leaves the engine unstarted so tests can inject crash/restore events
// first, through target.
type flexHarness struct {
	eng    *sim.Engine
	c      *cluster.Cluster
	rm     *yarn.RM
	d      *engine.Driver
	am     *AM
	target *engine.FaultTarget
	BUs    int
	spec   mr.JobSpec
}

func newFlexHarness(t *testing.T, c *cluster.Cluster, fileBUs int64, spec mr.JobSpec, speculation engine.SpeculationPolicy) *flexHarness {
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
	w := yarn.NewNodeWatcher(eng, c, rm)
	d.OnFinished(eng.Stop)
	target := engine.NewFaultTarget(c)
	target.Add(d)
	target.AttachWatcher(w)
	return &flexHarness{eng: eng, c: c, rm: rm, d: d, am: am, target: target, BUs: int(fileBUs), spec: spec}
}

func (h *flexHarness) run(t *testing.T) {
	t.Helper()
	h.rm.Start()
	h.eng.RunUntil(1e6)
	if !h.d.Finished() {
		t.Fatal("flexmap job did not finish")
	}
	if h.d.Result.Failed {
		t.Fatalf("flexmap job failed: %s", h.d.Result.FailReason)
	}
}

func (h *flexHarness) checkExactlyOnce(t *testing.T) {
	t.Helper()
	commits := h.d.BUCommits()
	if len(commits) != h.BUs {
		t.Fatalf("commits cover %d BUs, want %d", len(commits), h.BUs)
	}
	for id, n := range commits {
		if n != 1 {
			t.Fatalf("BU %d committed %d times, want exactly 1", id, n)
		}
	}
}

// The LTB payoff: a crashed elastic task rescues its fully-processed
// prefix as a durable commit and returns only the unprocessed remainder
// — the re-processed charge stays below one BU per crashed attempt.
func TestFlexMapCrashRescuesPrefixAndRestoresRemainder(t *testing.T) {
	h := newFlexHarness(t, cluster.Homogeneous(4), 512, flexSpec(0), nil)
	// By t=40 vertical scaling has grown tasks to multi-BU sizes, so the
	// crashed attempts have a non-empty processed prefix.
	h.eng.At(40, "crash", func() { h.target.CrashNode(1) })
	h.eng.At(80, "restore", func() { h.target.RestoreNode(1) })
	h.run(t)
	h.checkExactlyOnce(t)
	r := h.d.Result
	if r.NodesLost != 1 {
		t.Fatalf("NodesLost = %d, want 1", r.NodesLost)
	}
	if r.AttemptsCrashed == 0 {
		t.Fatal("no attempt crashed at t=40 on a busy node")
	}
	rescued := 0
	for _, a := range r.MapAttempts() {
		if strings.HasSuffix(a.Task, ".rescued") {
			rescued++
			if a.BUs == 0 || a.Bytes == 0 {
				t.Fatalf("empty rescue record %+v", a)
			}
		}
	}
	if rescued == 0 {
		t.Fatal("no prefix was rescued from the crashed multi-BU attempts")
	}
	// Stock would charge everything processed at crash; FlexMap wastes at
	// most the one partially-processed BU per crashed attempt. (Committed
	// output lost with the node's disk is charged in full by both engines
	// — subtract it to isolate the crashed-attempt waste.)
	waste := r.ReprocessedBytes - int64(r.OutputBUsLost)*dfs.BUSize
	if max := int64(r.AttemptsCrashed) * dfs.BUSize; waste >= max {
		t.Fatalf("crashed-attempt waste = %d, want < %d (one in-flight BU per crashed attempt)",
			waste, max)
	}
}

// A rejoining node's speed window is reset: the sizing of its first
// post-rejoin task uses the conservative relative speed 1.0 (unmeasured
// = slowest), not the stale pre-crash estimate.
func TestFlexMapRejoinResetsSpeedWindow(t *testing.T) {
	// The victim is 3× faster than the rest, so before the crash its
	// measured relative speed is well above 1.
	c := cluster.NewCluster("het", []cluster.NodeSpec{
		{Name: "s0", BaseSpeed: 1, Slots: 2}, {Name: "s1", BaseSpeed: 1, Slots: 2},
		{Name: "fast", BaseSpeed: 3, Slots: 2}, {Name: "s2", BaseSpeed: 1, Slots: 2},
	})
	const victim = cluster.NodeID(2)
	h := newFlexHarness(t, c, 1024, flexSpec(0), nil)
	markAt := -1
	h.eng.At(60, "crash", func() {
		if h.am.monitor.GetSpeed(victim) == 0 {
			t.Error("victim had no speed estimate before the crash")
		}
		markAt = len(h.d.Trace.Events())
		h.target.CrashNode(victim)
	})
	h.eng.At(90, "restore", func() { h.target.RestoreNode(victim) })
	h.run(t)
	h.checkExactlyOnce(t)
	if markAt < 0 {
		t.Fatal("crash event never fired")
	}
	onVictim := func(events []trace.Event) []sizing {
		var out []sizing
		for _, s := range sizings(t, events) {
			if s.Node == victim {
				out = append(out, s)
			}
		}
		return out
	}
	events := h.d.Trace.Events()
	preCrash, postRejoin := onVictim(events[:markAt]), onVictim(events[markAt:])
	if len(preCrash) == 0 {
		t.Fatal("victim never dispatched before the crash")
	}
	if last := preCrash[len(preCrash)-1]; last.RelSpeed <= 1.0 {
		t.Fatalf("victim's pre-crash relative speed = %v, expected > 1 (it is the fast node)", last.RelSpeed)
	}
	if len(postRejoin) == 0 {
		t.Skip("victim received no work after rejoin (job drained first)")
	}
	if first := postRejoin[0]; first.RelSpeed != 1.0 {
		t.Fatalf("first post-rejoin dispatch used relative speed %v, want the conservative 1.0 (window reset)",
			first.RelSpeed)
	}
}

// Integration: a straggler task that is both speculated (LATE) and then
// crashed ends with exactly one surviving completion, and the job's BU
// accounting stays exactly-once.
func TestFlexMapSpeculatedStragglerCrashSurvivesOnce(t *testing.T) {
	h := newFlexHarness(t, cluster.Homogeneous(4), 256, flexSpec(0), speculate.NewLATE())
	const straggler = cluster.NodeID(0)
	// Collapse node 0 so LATE speculates its task(s), then crash it once
	// a speculative copy is actually racing.
	h.eng.At(20, "collapse", func() { h.c.Node(straggler).SetInterference(0.05) })
	crashed := false
	sim.NewTicker(h.eng, 1, "crash-when-speculated", func(now sim.Time) {
		if crashed || h.d.Result.SpeculativeLaunches == 0 {
			return
		}
		crashed = true
		h.target.CrashNode(straggler)
		h.eng.At(now+50, "restore", func() { h.target.RestoreNode(straggler) })
	})
	h.run(t)
	if !crashed {
		t.Fatal("no speculative copy ever launched; straggler scenario not exercised")
	}
	h.checkExactlyOnce(t)
	// Exactly one successful completion per task: the crashed original
	// must not survive alongside its speculative copy.
	perTask := map[string]int{}
	for _, a := range h.d.Result.MapAttempts() {
		perTask[strings.TrimSuffix(a.Task, ".rescued")]++
	}
	for task, n := range perTask {
		if n > 2 { // a task may have one rescue record plus one completion
			t.Fatalf("task %s has %d successful records", task, n)
		}
	}
	// Successful records cover each input BU once, plus one extra record
	// for every committed-output BU that died with the node and re-ran.
	total := 0
	for _, a := range h.d.Result.MapAttempts() {
		total += a.BUs
	}
	if want := h.BUs + h.d.Result.OutputBUsLost; total != want {
		t.Fatalf("successful records cover %d BUs, want %d (%d input + %d re-executed lost output)",
			total, want, h.BUs, h.d.Result.OutputBUsLost)
	}
}

func TestSpeedMonitorResetNodeClearsWindow(t *testing.T) {
	eng := sim.New()
	c := cluster.Homogeneous(2)
	store := dfs.NewStore(c, 3, randutil.New(5))
	if _, err := store.AddFile("input", 8*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	rm := yarn.NewRM(eng, c)
	d, err := engine.NewDriver(engine.NewExecutor(eng, c, engine.BaseIPS), store, rm, flexSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	m := NewSpeedMonitor(d)
	m.push(0, 100)
	m.push(0, 200)
	m.push(1, 50)
	if got := m.GetSpeed(0); got != 150 {
		t.Fatalf("GetSpeed(0) = %v, want 150", got)
	}
	m.ResetNode(0)
	if got := m.GetSpeed(0); got != 0 {
		t.Fatalf("GetSpeed(0) after reset = %v, want 0", got)
	}
	if got := m.GetSpeed(1); got != 50 {
		t.Fatalf("ResetNode(0) disturbed node 1: %v", got)
	}
	// An unmeasured node is indistinguishable from the slowest: the
	// conservative assumption the sizing algorithm restarts from.
	if rel := m.RelativeSpeed(0); rel != 1.0 {
		t.Fatalf("relative speed after reset = %v, want the conservative 1.0", rel)
	}
}
