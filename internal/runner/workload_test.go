package runner

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/faults"
	"flexmap/internal/metrics"
	"flexmap/internal/mr"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
	"flexmap/internal/workload"
	"flexmap/internal/yarn"
)

// wlSpec is a wordcount-shaped modeled job template; Name and InputFile
// are filled per job by the workload runner.
func wlSpec(reducers int) mr.JobSpec {
	return mr.JobSpec{
		Name:         "template",
		InputFile:    "template",
		NumReducers:  reducers,
		MapCost:      1.0,
		ShuffleRatio: 0.3,
		ReduceCost:   0.5,
	}
}

// testWorkload is the battery's canonical scenario: a mixed stock/
// FlexMap job stream on a small cluster, sized to finish fast.
func testWorkload(seed int64, jobs int) WorkloadScenario {
	return WorkloadScenario{
		Name:    "wl-test",
		Cluster: homoFactory(8),
		Seed:    seed,
		Pattern: workload.Pattern{Jobs: jobs, Rate: 1.0 / 60},
		Classes: []WorkloadClass{
			{Name: "small-stock", Weight: 2, MinBytes: 8 * dfs.BUSize, MaxBytes: 16 * dfs.BUSize,
				Engine: Engine{Kind: Hadoop, SplitMB: 64}, Spec: wlSpec(2)},
			{Name: "big-flex", Weight: 1, MinBytes: 24 * dfs.BUSize, MaxBytes: 48 * dfs.BUSize,
				Engine: Engine{Kind: FlexMap}, Spec: wlSpec(4)},
		},
		Policy: "fair",
	}
}

func TestRunWorkloadCompletes(t *testing.T) {
	res, err := RunWorkload(testWorkload(7, 12))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 12 || res.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 12/0", res.Completed, res.Failed)
	}
	if res.Span <= 0 || res.GoodputBytesPerSec <= 0 || res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("degenerate cluster metrics: span=%v goodput=%v util=%v",
			res.Span, res.GoodputBytesPerSec, res.Utilization)
	}
	if res.LatencyP50 <= 0 || res.LatencyP99 < res.LatencyP50 {
		t.Fatalf("latency percentiles out of order: p50=%v p99=%v", res.LatencyP50, res.LatencyP99)
	}
	for i, j := range res.Jobs {
		if j.Index != i || j.Result == nil {
			t.Fatalf("job %d: bad outcome %+v", i, j)
		}
		if j.Latency <= 0 {
			t.Fatalf("job %d: non-positive latency %v", i, j.Latency)
		}
		if j.QueueWait < 0 {
			t.Fatalf("job %d: never granted a container", i)
		}
		// Exactly-once commit accounting per job, its own namespace.
		for bu, n := range j.BUCommits {
			if n != 1 {
				t.Fatalf("job %d: BU %d committed %d times", i, bu, n)
			}
		}
	}
}

// TestWorkloadPoliciesDiffer sanity-checks that policy selection reaches
// the scheduler: FIFO and fair must produce different queue waits on a
// contended cluster (identical seeds otherwise).
func TestWorkloadPoliciesDiffer(t *testing.T) {
	mk := func(policy string) *WorkloadResult {
		sc := testWorkload(11, 10)
		sc.Policy = policy
		sc.Pattern.Rate = 1.0 / 5 // heavy contention
		res, err := RunWorkload(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fifo, fair := mk("fifo"), mk("fair")
	if fifo.MeanQueueWait == fair.MeanQueueWait && fifo.LatencyP99 == fair.LatencyP99 {
		t.Fatal("fifo and fair produced identical contention metrics; policy not wired through")
	}
}

// TestWorkloadSkewTuneRepartitions: SkewTune queues repartitioned work
// from inside a slot offer and pokes the shared RM, which nests a sweep
// of offers inside the multiplexer's own. The workload must still finish
// with every BU committed once.
func TestWorkloadSkewTuneRepartitions(t *testing.T) {
	for _, policy := range []string{"fifo", "fair"} {
		sc := testWorkload(7, 6)
		sc.Cluster = hetFactory
		sc.Policy = policy
		for i := range sc.Classes {
			sc.Classes[i].Engine = Engine{Kind: SkewTune, SplitMB: 64}
			sc.Classes[i].MinBytes, sc.Classes[i].MaxBytes = 64*dfs.BUSize, 128*dfs.BUSize
		}
		res, err := RunWorkload(sc)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if res.Completed != 6 {
			t.Fatalf("%s: completed=%d, want 6", policy, res.Completed)
		}
		var moved int64
		for _, j := range res.Jobs {
			moved += j.Result.RepartitionBytes
			for bu, n := range j.BUCommits {
				if n != 1 {
					t.Fatalf("%s: job %d: BU %d committed %d times", policy, j.Index, bu, n)
				}
			}
		}
		if moved == 0 {
			t.Fatalf("%s: no job repartitioned; the nested offer went untested", policy)
		}
	}
}

// nestedScenario is a 16-job stream on 24 nodes with one class per
// engine kind. With SkewTune among the kinds, its
// repartitions poke the shared RM from inside offers while other jobs
// compete for the same nodes.
func nestedScenario(t *testing.T, policy string, seed int64, kinds ...EngineKind) WorkloadScenario {
	sc := WorkloadScenario{
		Name:    "nested-" + policy,
		Cluster: equivCluster(24),
		Seed:    seed,
		Pattern: workload.Pattern{Jobs: 16, Rate: 2},
		Policy:  policy,
	}
	for _, k := range kinds {
		sc.Classes = append(sc.Classes, WorkloadClass{Name: string(k), Weight: 1,
			MinBytes: 8 * dfs.BUSize, MaxBytes: 24 * dfs.BUSize, Engine: Engine{Kind: k}, Spec: wcSpec(t, 3)})
	}
	return sc
}

// TestWorkloadNestedSweepFillsNode: the sweep nested in a SkewTune offer
// can grant the offered node's last slot, and the outer offer must then
// stop walking jobs. Each cell panicked while the outer walk went on to
// offer the full node to a FlexMap job, whose grant found no free slot.
func TestWorkloadNestedSweepFillsNode(t *testing.T) {
	for _, c := range []struct {
		policy string
		seed   int64
		kinds  []EngineKind
	}{
		{"fifo", 7, []EngineKind{FlexMap, SkewTune}},
		{"fair", 1, []EngineKind{FlexMap, SkewTune}},
		{"fifo", 1, []EngineKind{Hadoop, FlexMap, SkewTune}},
	} {
		sc := nestedScenario(t, c.policy, c.seed, c.kinds...)
		res, err := func() (res *WorkloadResult, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return RunWorkload(sc)
		}()
		if err != nil {
			t.Errorf("%s seed %d %v: %v", c.policy, c.seed, c.kinds, err)
			continue
		}
		if res.Completed != 16 {
			t.Errorf("%s seed %d %v: completed=%d, want 16", c.policy, c.seed, c.kinds, res.Completed)
		}
		for _, j := range res.Jobs {
			for bu, n := range j.BUCommits {
				if n != 1 {
					t.Fatalf("%s seed %d: job %d: BU %d committed %d times", c.policy, c.seed, j.Index, bu, n)
				}
			}
		}
	}
}

// traceBytes renders a workload's trace to canonical JSONL bytes.
func traceBytes(t *testing.T, res *WorkloadResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, res.Trace.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorkloadDeterministicReplay: same seed ⇒ identical outcomes and
// byte-identical trace JSONL across repeated runs. The cells are the
// mixed stock/FlexMap battery scenario and a 16-job FlexMap stream on a
// heterogeneous 20-node cluster, where many drivers share one engine and
// their per-job events interleave into one trace.
func TestWorkloadDeterministicReplay(t *testing.T) {
	spec20, err := specForEquiv(20)
	if err != nil {
		t.Fatal(err)
	}
	sixteen := WorkloadScenario{
		Name:    "replay-workload",
		Cluster: equivCluster(20),
		Seed:    42,
		Pattern: workload.Pattern{Jobs: 16, Rate: 0.5},
		Classes: []WorkloadClass{{
			Name: "wc", Weight: 1,
			MinBytes: 4 * dfs.BUSize, MaxBytes: 16 * dfs.BUSize,
			Engine: Engine{Kind: FlexMap}, Spec: spec20,
		}},
		Policy: "fair",
	}
	for _, c := range []struct {
		name string
		sc   WorkloadScenario
	}{
		{"mixed", testWorkload(42, 10)},
		{"16-job", sixteen},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func() (*WorkloadResult, []byte) {
				sc := c.sc
				sc.Trace = trace.Options{Collect: true}
				res, err := RunWorkload(sc)
				if err != nil {
					t.Fatal(err)
				}
				return res, traceBytes(t, res)
			}
			a, ab := run()
			b, bb := run()
			if !bytes.Equal(ab, bb) {
				t.Fatal("trace JSONL differs across identical-seed runs")
			}
			if a.SimEvents != b.SimEvents || a.Span != b.Span || a.MaxConcurrent != b.MaxConcurrent ||
				a.Utilization != b.Utilization || a.GoodputBytesPerSec != b.GoodputBytesPerSec {
				t.Fatalf("aggregates differ: %+v vs %+v", a, b)
			}
			if !reflect.DeepEqual(a.Jobs, b.Jobs) {
				t.Fatal("per-job outcomes differ across replays")
			}
		})
	}
}

// TestWorkloadSeedSensitivity: different seeds actually change the run.
func TestWorkloadSeedSensitivity(t *testing.T) {
	a, err := RunWorkload(testWorkload(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(testWorkload(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Span == b.Span && a.SimEvents == b.SimEvents {
		t.Fatal("seeds 1 and 2 produced identical workload runs")
	}
}

// TestWorkloadTraceJobScoping: every event in a workload trace carries
// a job label, and each job's task completions land under its own label —
// the regression test for concurrent jobs colliding in one trace.
func TestWorkloadTraceJobScoping(t *testing.T) {
	sc := testWorkload(5, 6)
	sc.Trace = trace.Options{Collect: true}
	res, err := RunWorkload(sc)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make(map[string]bool)
	done := make(map[string]int)
	for _, e := range res.Trace.Events() {
		if e.Job == "" {
			t.Fatalf("workload event without job label: kind=%s task=%s", e.Kind, e.Task)
		}
		jobs[e.Job] = true
		if e.Kind == trace.KindTaskDone {
			done[e.Job]++
		}
	}
	if len(jobs) != 6 {
		t.Fatalf("trace covers %d jobs, want 6", len(jobs))
	}
	for job := range jobs {
		if done[job] == 0 {
			t.Errorf("job %s has no task-done events", job)
		}
	}
}

// fireCounter is a no-op interferer that counts the events its engine
// fires: RunWorkload takes no fire observer, but it starts the cluster's
// interferer on the shared engine.
type fireCounter struct{ n *uint64 }

func (f fireCounter) Start(eng *sim.Engine) {
	eng.SetFireObserver(func(sim.Time, string) { *f.n++ })
}

// TestWorkloadSimEventsNotDoubleCounted: the engine is shared, so the
// workload result reports its event count exactly once — equal to what
// an observer on the engine sees fire — while per-job outcomes carry no
// event count at all (the field does not exist, by design; this guards
// the aggregate).
func TestWorkloadSimEventsNotDoubleCounted(t *testing.T) {
	sc := testWorkload(9, 6)
	var fired uint64
	factory := sc.Cluster
	sc.Cluster = func() (*cluster.Cluster, cluster.Interferer) {
		c, _ := factory()
		return c, fireCounter{&fired}
	}
	res, err := RunWorkload(sc)
	if err != nil {
		t.Fatal(err)
	}
	if fired == 0 || res.SimEvents != fired {
		t.Fatalf("Result.SimEvents = %d, observer saw %d events fire", res.SimEvents, fired)
	}
}

// TestWorkloadEndsAtLastFinish: a workload run ends at the event that
// finishes its last job, though fault timelines run to a 4 h horizon.
func TestWorkloadEndsAtLastFinish(t *testing.T) {
	sc := testWorkload(21, 8)
	sc.Faults = faults.Plan{CrashRate: 2, MeanDowntime: 45}
	var last sim.Time
	res, err := runWorkload(sc, func(s *stack, mux yarn.Scheduler) yarn.Scheduler {
		s.eng.SetFireObserver(func(at sim.Time, _ string) { last = at })
		return mux
	})
	if err != nil {
		t.Fatal(err)
	}
	var end sim.Time
	for _, j := range res.Jobs {
		end = max(end, j.Finished)
	}
	if last != end {
		t.Fatalf("last event fired at %v, last job finished at %v", last, end)
	}
}

// TestWorkloadFaultsGrid is the faults × workload integration test: a
// crash-rate grid over a 20-job workload asserting exactly-once BU
// commits per successful job, no cross-job commit leakage, and that a
// failed job does not wedge the RM queue (all other jobs still finish).
func TestWorkloadFaultsGrid(t *testing.T) {
	for _, rate := range []float64{0.5, 2, 6} {
		rate := rate
		t.Run("", func(t *testing.T) {
			sc := testWorkload(21, 20)
			sc.Faults = faults.Plan{CrashRate: rate, MeanDowntime: 45}
			res, err := RunWorkload(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed+res.Failed != 20 {
				t.Fatalf("outcomes %d+%d != 20", res.Completed, res.Failed)
			}
			// A failed job must not wedge the rest: everything that
			// didn't itself fail must have finished (RunWorkload errors
			// on unfinished jobs, so reaching here proves it) and at
			// least one job must survive even the harshest grid cell.
			if res.Completed == 0 {
				t.Fatal("no job survived; grid cell degenerate")
			}
			seen := make(map[dfs.BUID]string)
			for _, j := range res.Jobs {
				if j.Failed {
					continue
				}
				if len(j.BUCommits) == 0 {
					t.Fatalf("job %s: no commit accounting", j.ID)
				}
				for bu, n := range j.BUCommits {
					if n != 1 {
						t.Fatalf("rate %v: job %s BU %d committed %d times, want exactly once",
							rate, j.ID, bu, n)
					}
					// No cross-job work leakage: a BU belongs to exactly
					// one job's input file, so two jobs committing the
					// same BU means recovery crossed job boundaries.
					if owner, dup := seen[bu]; dup {
						t.Fatalf("rate %v: BU %d committed by both %s and %s", rate, bu, owner, j.ID)
					}
					seen[bu] = j.ID
				}
			}
		})
	}
}

// TestWorkloadLatencyExcludesFailedJobs is the faults × workload
// regression test for the latency aggregation: a retry-exhaustion
// abort's sojourn time measures the give-up policy (retry budget ×
// backoff), not service latency, so failed jobs must not shift the
// percentiles. The crash-heavy cell is tuned (3 nodes, long stock
// jobs, 120 crashes/node-hour) so seed 33 reliably exhausts some
// retry budgets.
func TestWorkloadLatencyExcludesFailedJobs(t *testing.T) {
	sc := WorkloadScenario{
		Name:    "wl-fail",
		Cluster: homoFactory(3),
		Seed:    33,
		Pattern: workload.Pattern{Jobs: 10, Rate: 1.0 / 120},
		Classes: []WorkloadClass{
			{Name: "stock", Weight: 1, MinBytes: 48 * dfs.BUSize, MaxBytes: 64 * dfs.BUSize,
				Engine: Engine{Kind: Hadoop, SplitMB: 64}, Spec: wlSpec(2)},
		},
		Policy: "fair",
		Faults: faults.Plan{CrashRate: 120, MeanDowntime: 200},
	}
	res, err := RunWorkload(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatal("cell produced no failed jobs; test no longer exercises the exclusion")
	}
	if res.Completed == 0 {
		t.Fatal("cell produced no successful jobs; percentiles undefined")
	}
	var ok, all []float64
	for _, j := range res.Jobs {
		all = append(all, float64(j.Latency))
		if !j.Failed {
			ok = append(ok, float64(j.Latency))
		}
	}
	sort.Float64s(ok)
	sort.Float64s(all)
	wantP50 := sim.Duration(metrics.Percentile(ok, 0.50))
	wantP95 := sim.Duration(metrics.Percentile(ok, 0.95))
	wantP99 := sim.Duration(metrics.Percentile(ok, 0.99))
	if res.LatencyP50 != wantP50 || res.LatencyP95 != wantP95 || res.LatencyP99 != wantP99 {
		t.Fatalf("percentiles (%v, %v, %v) != successful-only (%v, %v, %v)",
			res.LatencyP50, res.LatencyP95, res.LatencyP99, wantP50, wantP95, wantP99)
	}
	// The exclusion must be load-bearing here: mixing the aborts back in
	// has to move at least one percentile, or the cell proves nothing.
	if sim.Duration(metrics.Percentile(all, 0.50)) == wantP50 &&
		sim.Duration(metrics.Percentile(all, 0.95)) == wantP95 &&
		sim.Duration(metrics.Percentile(all, 0.99)) == wantP99 {
		t.Fatal("failed-job latencies do not move any percentile; pick a harsher cell")
	}
}

// TestWorkloadValidation exercises configuration error paths.
func TestWorkloadValidation(t *testing.T) {
	bad := func(mut func(*WorkloadScenario)) error {
		sc := testWorkload(1, 2)
		mut(&sc)
		_, err := RunWorkload(sc)
		return err
	}
	if err := bad(func(sc *WorkloadScenario) { sc.Cluster = nil }); err == nil {
		t.Error("nil cluster factory accepted")
	}
	if err := bad(func(sc *WorkloadScenario) { sc.Classes = nil }); err == nil {
		t.Error("empty class list accepted")
	}
	if err := bad(func(sc *WorkloadScenario) { sc.Policy = "lottery" }); err == nil {
		t.Error("unknown policy accepted")
	}
	// The retired capacity policy is rejected like any unknown name.
	if err := bad(func(sc *WorkloadScenario) { sc.Policy = "capacity" }); err == nil {
		t.Error("retired capacity policy accepted")
	}
	if err := bad(func(sc *WorkloadScenario) { sc.Classes[0].Weight = math.NaN() }); err == nil {
		t.Error("NaN class weight accepted")
	}
	if err := bad(func(sc *WorkloadScenario) { sc.Classes[1].Weight = math.Inf(1) }); err == nil {
		t.Error("infinite class weight accepted")
	}
	if err := bad(func(sc *WorkloadScenario) { sc.Pattern.Rate = -1 }); err == nil {
		t.Error("negative rate accepted")
	}
	if err := bad(func(sc *WorkloadScenario) {
		sc.Classes[0].MinBytes, sc.Classes[0].MaxBytes = math.MaxInt64, math.MaxInt64
		sc.Classes[1].MinBytes, sc.Classes[1].MaxBytes = math.MaxInt64, math.MaxInt64
	}); err == nil {
		t.Error("MaxInt64 input size accepted")
	}
	if err := bad(func(sc *WorkloadScenario) { sc.Classes[0].Spec.MapCost = -3 }); err == nil {
		t.Error("invalid class spec accepted")
	}
	if err := bad(func(sc *WorkloadScenario) {
		sc.Faults = faults.Plan{CrashRate: 1}
		sc.Classes[0].Engine = Engine{Kind: SkewTune, SplitMB: 64}
	}); err == nil {
		t.Error("SkewTune under fault injection accepted")
	}
	if err := bad(func(sc *WorkloadScenario) { sc.Cluster = homoFactory(0) }); err == nil {
		t.Error("zero-node cluster accepted")
	}
	if err := bad(func(sc *WorkloadScenario) {
		sc.Cluster = func() (*cluster.Cluster, cluster.Interferer) { return nil, nil }
	}); err == nil {
		t.Error("nil cluster from the factory accepted")
	}
	if err := bad(func(sc *WorkloadScenario) { sc.Faults = faults.Plan{CrashRate: -1} }); err == nil {
		t.Error("negative crash rate accepted")
	}
	if err := bad(func(sc *WorkloadScenario) {
		sc.Faults = faults.Plan{CrashRate: 2, MeanDowntime: sim.Duration(math.NaN())}
	}); err == nil {
		t.Error("NaN fault downtime accepted")
	}
	if err := bad(func(sc *WorkloadScenario) {
		factory := sc.Cluster
		sc.Cluster = func() (*cluster.Cluster, cluster.Interferer) {
			c, _ := factory()
			c.Topology = &cluster.TopologySpec{HostsPerRack: 4, Oversub: math.NaN()}
			return c, nil
		}
	}); err == nil {
		t.Error("NaN oversubscription accepted")
	}
	if err := bad(func(sc *WorkloadScenario) { sc.MaxSimTime = 10 }); err == nil {
		t.Error("impossible deadline accepted (jobs can't finish)")
	}
	// Perfetto spans carry no job, so concurrent jobs' spans would collide.
	if err := bad(func(sc *WorkloadScenario) { sc.Trace.PerfettoPath = filepath.Join(t.TempDir(), "p.json") }); err == nil {
		t.Error("Perfetto trace path accepted")
	}
}
