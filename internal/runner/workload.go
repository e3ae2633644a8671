package runner

import (
	"fmt"
	"sort"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/elastic"
	"flexmap/internal/engine"
	"flexmap/internal/faults"
	"flexmap/internal/metrics"
	"flexmap/internal/mr"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
	"flexmap/internal/workload"
	"flexmap/internal/yarn"
)

// WorkloadClass is one entry of a workload's job mix: an arrival weight
// and input-size range (see internal/workload), plus the engine and job
// template every job of the class runs with.
type WorkloadClass struct {
	// Name labels the class in outcomes.
	Name string
	// Weight is the relative arrival probability.
	Weight float64
	// MinBytes/MaxBytes bound the per-job input-size draw.
	MinBytes, MaxBytes int64
	// Engine runs the class's jobs.
	Engine Engine
	// Spec is the job template; Name and InputFile are overridden per
	// job ("j0042", "j0042/input").
	Spec mr.JobSpec
}

// WorkloadScenario describes an open multi-job run: one cluster, one
// DFS namespace, one RM — many jobs arriving over virtual time and
// competing for containers under an inter-job policy.
type WorkloadScenario struct {
	Name    string
	Cluster ClusterFactory
	Seed    int64

	// Pattern shapes job arrivals (Poisson or burst).
	Pattern workload.Pattern
	// Classes is the job mix; at least one is required.
	Classes []WorkloadClass

	// Policy selects inter-job arbitration: "fifo" (default) or "fair".
	Policy string

	// Faults injects seeded node crashes shared by every concurrent job.
	Faults faults.Plan
	// Membership provisions spare nodes and applies a seeded elastic
	// join/drain timeline or autoscaler shared by every concurrent job
	// (see internal/elastic). The zero value adds nothing to the run.
	Membership elastic.Plan
	// MaxSimTime bounds the virtual clock; default 30 days.
	MaxSimTime sim.Time
	// Trace selects event tracing; each job's events carry its job ID.
	Trace trace.Options
}

// JobOutcome is one job's result within a workload run.
type JobOutcome struct {
	// Index is the arrival index; ID is "j<index>" (the trace label).
	Index int
	ID    string
	// Class indexes WorkloadScenario.Classes.
	Class  int
	Engine string
	// InputBytes is the job's drawn input size.
	InputBytes int64
	// Submitted/Finished are arrival and completion on the virtual
	// clock; Latency is their difference (sojourn time).
	Submitted sim.Time
	Finished  sim.Time
	Latency   sim.Duration
	// QueueWait is submission → first container grant (-1 if never
	// granted).
	QueueWait sim.Duration
	// Failed marks retry-exhaustion abort; the workload keeps going.
	Failed     bool
	FailReason string
	// Result is the job's full result record.
	Result *mr.JobResult
	// BUCommits is the job's per-BU commit accounting (exactly-once
	// invariant for successful jobs, crashes or not).
	BUCommits map[dfs.BUID]int
}

// WorkloadResult aggregates a workload run.
type WorkloadResult struct {
	Scenario string
	Policy   string
	// Jobs holds per-job outcomes in arrival order.
	Jobs []JobOutcome
	// Completed and Failed partition the jobs.
	Completed, Failed int
	// MaxConcurrent is the peak number of jobs in flight at once.
	MaxConcurrent int
	// Span is the virtual time from workload start (t=0) to the last
	// job completion — the makespan all rates below normalize by.
	Span sim.Duration
	// GoodputBytesPerSec is successfully processed input per second of
	// span.
	GoodputBytesPerSec float64
	// Utilization is busy slot-seconds over available slot-seconds. On
	// elastic runs the denominator integrates provisioned capacity over
	// time (spares count only while joined).
	Utilization float64
	// LatencyP50/P95/P99 are percentiles of successful-job sojourn times.
	// Failed jobs are excluded: a retry-exhaustion abort's sojourn
	// measures the give-up policy, not service latency, and mixing the
	// two made fault-injection cells report nonsense tails (a faults ×
	// workload regression test pins the exclusion). MeanQueueWait
	// averages submission→first-grant over jobs that got containers,
	// failed or not.
	LatencyP50, LatencyP95, LatencyP99 sim.Duration
	MeanQueueWait                      sim.Duration
	// NodeHours is machine-hours consumed over the span: base nodes for
	// the whole span, spares only their joined intervals.
	NodeHours float64
	// CrossRackBytes is the traffic carried across the oversubscribed
	// core when the cluster has a topology spec (0 in flat runs).
	CrossRackBytes int64

	// Cluster is the post-run cluster.
	Cluster *cluster.Cluster
	// Trace is the shared run tracer (nil unless enabled); events from
	// all jobs interleave chronologically, each labeled with its job ID.
	Trace *trace.Tracer
	// SimEvents counts the engine's fired events for the whole
	// workload. Per-job outcomes deliberately carry no event count: the
	// engine is shared, so any per-job attribution would double-count.
	SimEvents uint64
}

// jobScheduler adapts one job to inter-job offers: map work first (the
// AM declines when it has none), then queued reduces via the RM path.
type jobScheduler struct {
	d  *engine.Driver
	am yarn.Scheduler
}

func (j *jobScheduler) OnSlotFree(n *cluster.Node) bool {
	if j.d.Finished() {
		return false
	}
	if j.am.OnSlotFree(n) {
		return true
	}
	return j.d.TryReduce(n)
}

// Bound implements yarn.Scheduler: with the AM bound to no node (as
// every AM is once its maps finish), only TryReduce can act, and only on
// the nodes where a partition queues. An AM bound to some nodes counts
// as unbound; no AM names any.
func (j *jobScheduler) Bound(dst []cluster.NodeID) ([]cluster.NodeID, bool) {
	if nodes, ok := j.am.Bound(dst); !ok || len(nodes) > 0 {
		return nodes, false
	}
	return j.d.ReduceNodes(dst)
}

// workloadPolicy resolves the scenario's policy selection to its name
// and whether it is fair.
func workloadPolicy(sc WorkloadScenario) (name string, fair bool, err error) {
	switch sc.Policy {
	case "", "fifo":
		return "fifo", false, nil
	case "fair":
		return "fair", true, nil
	default:
		return "", false, fmt.Errorf("runner: unknown inter-job policy %q", sc.Policy)
	}
}

// jobID formats the canonical job label for an arrival index.
func jobID(index int) string { return fmt.Sprintf("j%04d", index) }

// RunWorkload executes an open multi-job workload: seeded arrivals
// submit jobs over virtual time, every job shares one engine, cluster,
// DFS and RM, and the configured policy arbitrates container grants
// between them. Individual job failures (retry exhaustion under crash
// injection) are outcomes, not errors; the error path is reserved for
// configuration problems and scheduler hangs.
func RunWorkload(sc WorkloadScenario) (*WorkloadResult, error) {
	return runWorkload(sc, nil)
}

// runWorkload is RunWorkload with an optional wrap, which, when non-nil,
// stands between the RM and the inter-job scheduler, as in run.
func runWorkload(sc WorkloadScenario, wrap func(*stack, yarn.Scheduler) yarn.Scheduler) (*WorkloadResult, error) {
	if sc.Cluster == nil {
		return nil, fmt.Errorf("runner: workload %q has no cluster factory", sc.Name)
	}
	if len(sc.Classes) == 0 {
		return nil, fmt.Errorf("runner: workload %q has no job classes", sc.Name)
	}
	if sc.Trace.PerfettoPath != "" {
		return nil, fmt.Errorf("runner: workload %q cannot write a Perfetto trace: spans are keyed by task and node, not job, so concurrent jobs' map-NNNN spans would collide (ROADMAP 7(d))", sc.Name)
	}
	policy, fair, err := workloadPolicy(sc)
	if err != nil {
		return nil, err
	}
	genClasses := make([]workload.Class, len(sc.Classes))
	for i, c := range sc.Classes {
		genClasses[i] = workload.Class{Weight: c.Weight, MinBytes: c.MinBytes, MaxBytes: c.MaxBytes}
		probe := c.Spec
		probe.Name, probe.InputFile = "probe", "probe"
		if err := probe.Validate(); err != nil {
			return nil, fmt.Errorf("runner: workload class %d (%s): %w", i, c.Name, err)
		}
		if sc.Faults.Active() && c.Engine.Kind == SkewTune {
			return nil, fmt.Errorf("runner: fault injection is not supported for %s (class %d)", c.Engine, i)
		}
		if sc.Membership.Active() && c.Engine.Kind == SkewTune {
			return nil, fmt.Errorf("runner: elastic membership is not supported for %s (class %d)", c.Engine, i)
		}
	}
	arrivals, err := workload.Generate(sc.Seed, sc.Pattern, genClasses)
	if err != nil {
		return nil, err
	}

	s, err := newStack(Scenario{
		Name: sc.Name, Cluster: sc.Cluster, Seed: sc.Seed,
		Faults: sc.Faults, Membership: sc.Membership, MaxSimTime: sc.MaxSimTime, Trace: sc.Trace,
	})
	if err != nil {
		return nil, err
	}
	mux := yarn.NewInterJob(s.eng, s.rm, fair)
	if wrap != nil {
		s.rm.SetScheduler(wrap(s, mux))
	}
	target := engine.NewFaultTarget(s.clus)
	// Unlike Run, the watcher's ticker is armed before interference.
	s.addChurn(sc.Faults, sc.Membership, target)
	s.startInterference()

	st := &workloadState{outcomes: make([]JobOutcome, len(arrivals)), total: len(arrivals)}
	for _, a := range arrivals {
		a := a
		s.eng.At(a.At, "job-arrival", func() {
			if err := submitJob(s, sc, a, mux, target, st); err != nil {
				st.err = err
				s.eng.Stop()
			}
		})
	}

	s.run()
	if st.err != nil {
		return nil, st.err
	}
	if st.done != st.total {
		return nil, fmt.Errorf("runner: workload %q: %d of %d jobs unfinished at t=%v (scheduler hang or deadline too low)",
			sc.Name, st.total-st.done, st.total, s.deadline)
	}
	if err := sc.Trace.Write(s.tracer); err != nil {
		return nil, err
	}
	res := summarize(sc, policy, s, st)
	if s.fabric != nil {
		res.CrossRackBytes = s.fabric.CrossRackBytes()
	}
	return res, nil
}

// workloadState accumulates per-run progress shared by arrival events.
type workloadState struct {
	outcomes      []JobOutcome
	total         int
	done          int
	active        int
	maxConcurrent int
	err           error
}

// submitJob materializes one arrival: per-job input file, driver, AM,
// and submission to the inter-job scheduler, which owns the shared RM's
// offers.
func submitJob(s *stack, sc WorkloadScenario, a workload.Arrival, mux *yarn.InterJob,
	target *engine.FaultTarget, st *workloadState) error {

	id := jobID(a.Index)
	class := sc.Classes[a.Class]
	if _, err := s.store.AddFile(id+"/input", a.InputBytes); err != nil {
		return err
	}
	spec := class.Spec
	spec.Name = id
	spec.InputFile = id + "/input"
	// Workload inputs are modeled (no payload bytes), so live map/reduce
	// functions from benchmark specs would never run; drop them so the
	// per-job result doesn't pretend otherwise.
	spec.Mapper, spec.Reducer = nil, nil

	driver, am, err := s.newJob(spec, class.Engine, a.Seed, s.tracer.ForJob(id))
	if err != nil {
		return err
	}
	driver.ReduceViaRM = true
	target.Add(driver)

	handle := mux.Submit(id, &jobScheduler{d: driver, am: am})
	st.active++
	if st.active > st.maxConcurrent {
		st.maxConcurrent = st.active
	}
	driver.OnFinished(func() {
		mux.Retire(handle)
		st.active--
		st.done++
		res := driver.Result
		st.outcomes[a.Index] = JobOutcome{
			Index:      a.Index,
			ID:         id,
			Class:      a.Class,
			Engine:     res.Engine,
			InputBytes: a.InputBytes,
			Submitted:  res.Submitted,
			Finished:   res.Finished,
			Latency:    sim.Duration(res.Finished - res.Submitted),
			QueueWait:  handle.QueueWait(),
			Failed:     res.Failed,
			FailReason: res.FailReason,
			Result:     res,
			BUCommits:  driver.BUCommits(),
		}
		if st.done == st.total {
			s.eng.Stop()
		}
	})
	return nil
}

// summarize computes the workload's cluster-level metrics.
func summarize(sc WorkloadScenario, policy string, s *stack, st *workloadState) *WorkloadResult {
	out := &WorkloadResult{
		Scenario:      sc.Name,
		Policy:        policy,
		Jobs:          st.outcomes,
		MaxConcurrent: st.maxConcurrent,
		Cluster:       s.clus,
		Trace:         s.tracer,
		SimEvents:     s.eng.Fired(),
	}
	var span sim.Time
	var goodBytes int64
	var busy sim.Duration
	var latencies []float64
	var waitSum sim.Duration
	waited := 0
	for _, j := range out.Jobs {
		if j.Finished > span {
			span = j.Finished
		}
		for _, at := range j.Result.Attempts {
			busy += sim.Duration(at.End - at.Start)
		}
		if j.QueueWait >= 0 {
			waitSum += j.QueueWait
			waited++
		}
		if j.Failed {
			out.Failed++
			continue
		}
		out.Completed++
		goodBytes += j.InputBytes
		latencies = append(latencies, float64(j.Latency))
	}
	out.Span = sim.Duration(span)
	if span > 0 {
		out.GoodputBytesPerSec = float64(goodBytes) / float64(span)
		out.NodeHours = s.clus.NodeHours(span)
		out.Utilization = float64(busy) / s.clus.SlotSeconds(span)
	}
	if waited > 0 {
		out.MeanQueueWait = waitSum / sim.Duration(waited)
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		out.LatencyP50 = sim.Duration(metrics.Percentile(latencies, 0.50))
		out.LatencyP95 = sim.Duration(metrics.Percentile(latencies, 0.95))
		out.LatencyP99 = sim.Duration(metrics.Percentile(latencies, 0.99))
	}
	return out
}
