// Package runner wires one complete simulated job run: cluster, DFS,
// ResourceManager, driver, and the selected ApplicationMaster. The public
// flexmap package re-exports it; internal experiment harnesses use it
// directly.
package runner

import (
	"fmt"
	"math"

	"flexmap/internal/cluster"
	"flexmap/internal/core"
	"flexmap/internal/dfs"
	"flexmap/internal/elastic"
	"flexmap/internal/engine"
	"flexmap/internal/faults"
	"flexmap/internal/mr"
	"flexmap/internal/net"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/skewtune"
	"flexmap/internal/speculate"
	"flexmap/internal/trace"
	"flexmap/internal/yarn"
)

// MB and GB are size units in bytes.
const (
	MB int64 = 1024 * 1024
	GB int64 = 1024 * MB
)

// EngineKind selects a map-execution engine.
type EngineKind string

// The four engines the paper evaluates.
const (
	Hadoop       EngineKind = "hadoop"
	HadoopNoSpec EngineKind = "hadoop-nospec"
	SkewTune     EngineKind = "skewtune"
	FlexMap      EngineKind = "flexmap"
)

// Engine selects an engine plus its parameters.
type Engine struct {
	Kind EngineKind
	// SplitMB is the HDFS block size for Hadoop/SkewTune (64 or 128;
	// default 64). Ignored by FlexMap, which sizes tasks dynamically.
	SplitMB int
	// FlexAblation disables one FlexMap mechanism for the design-choice
	// studies: "no-vertical", "no-horizontal", "no-bias" or "no-spec".
	// Empty runs the full system. Ignored by the other engines.
	FlexAblation string
	// ReducePlacement overrides the engine's reduce placement policy:
	// "" keeps the engine default (stock even spreading; FlexMap's
	// capacity-biased sampling), and "greedy" installs the traffic-aware
	// greedy placer — the nethint-style baseline the netplace experiment
	// compares against.
	ReducePlacement string
}

// String names the engine the way the paper's figure legends do.
func (e Engine) String() string {
	var base string
	if e.Kind == FlexMap {
		base = string(FlexMap)
		if e.FlexAblation != "" {
			base = fmt.Sprintf("%s[%s]", FlexMap, e.FlexAblation)
		}
	} else {
		split := e.SplitMB
		if split == 0 {
			split = 64
		}
		base = fmt.Sprintf("%s-%dm", e.Kind, split)
	}
	if e.ReducePlacement != "" {
		base += "+" + e.ReducePlacement
	}
	return base
}

// applyReducePlacement installs the engine's reduce placement override on
// a freshly built driver (after the AM constructor, which may have set
// its own policy).
func applyReducePlacement(d *engine.Driver, eng Engine) error {
	switch eng.ReducePlacement {
	case "":
		return nil
	case "greedy":
		d.ReducePlacer = engine.GreedyReducePlacer
	default:
		return fmt.Errorf("runner: unknown reduce placement %q", eng.ReducePlacement)
	}
	return nil
}

// ClusterFactory builds a fresh cluster (and optional interference
// process) for each run, so every engine sees identical conditions.
type ClusterFactory func() (*cluster.Cluster, cluster.Interferer)

// DefaultNoiseSigma is the default lognormal sigma of per-task runtime
// noise, calibrated so same-size map runtimes spread roughly as the
// paper's Fig. 1(a) histogram.
const DefaultNoiseSigma = 0.25

// MaxSigma is the largest NoiseSigma and SkewSigma a scenario accepts.
// Both draw lognormal factors exp(σz − σ²/2) with z from NormFloat64,
// which stays within |z| < 13 unless two of its uniform draws are
// exactly 0. So up to MaxSigma a factor is above e^-456, about 1e-198,
// and the costs it scales stay positive. At σ = 40 most factors
// underflow to 0.
const MaxSigma = 20.0

// Scenario describes the fixed conditions of a comparison: cluster, data
// placement seed, input. Running the same scenario under different
// engines is an apples-to-apples comparison — placement, interference,
// and all stochastic choices derive from Seed.
type Scenario struct {
	Name    string
	Cluster ClusterFactory
	Seed    int64

	// Replication is the HDFS replication factor (0 means 3; negative
	// values are rejected).
	Replication int

	// InputSize creates a modeled input file of this many bytes.
	// InputData, when non-nil, creates a real file instead, enabling live
	// map/reduce execution with verifiable output.
	InputSize int64
	InputData []byte

	// NoiseSigma is the lognormal sigma of per-task runtime noise
	// (0 = DefaultNoiseSigma; a finite negative value disables noise;
	// NaN, ±Inf or a value above MaxSigma is an error).
	NoiseSigma float64

	// SkewSigma, when positive, assigns every stored block unit a
	// lognormal processing-cost weight (mean 1) — computational data
	// skew, the phenomenon SkewTune targets. Negative or non-finite
	// values and values above MaxSigma are rejected.
	SkewSigma float64

	// Faults injects seeded node crashes (see internal/faults). The zero
	// value injects nothing and adds nothing to the run — no watcher, no
	// injector, no extra events — so fault-free output is byte-identical
	// with or without this field existing. The schedule derives from Seed via the
	// "faults" split, so enabling faults never perturbs placement, noise
	// or scheduling randomness.
	Faults faults.Plan

	// Membership provisions spare nodes and applies a seeded elastic
	// timeline — joins, graceful drains, spot preemptions — and optionally
	// an autoscaler (see internal/elastic). The zero value provisions
	// nothing and adds nothing to the run, so static output is
	// byte-identical with or without this field existing. The timeline
	// derives from Seed via the "membership" split, and offline spares
	// draw no placement randomness, so enabling membership never perturbs
	// placement, noise or scheduling randomness of the base fleet.
	Membership elastic.Plan

	// MaxSimTime bounds the virtual clock (guard against scheduling
	// bugs); default 30 days.
	MaxSimTime sim.Time

	// OnFire, when non-nil, observes every fired event as (time, name) —
	// the hook the replay tests use to assert two same-seed runs fire the
	// identical sequence.
	OnFire func(sim.Time, string)

	// Trace selects event tracing for the run (see internal/trace). The
	// zero value attaches no tracer: the simulation pays a nil-check per
	// lifecycle transition and emits nothing, and tracing on or off never
	// changes any simulation output.
	Trace trace.Options
}

// Result bundles the job result with the run's cluster, commit counts,
// event trace and fabric summary.
type Result struct {
	*mr.JobResult
	// Cluster is the post-run cluster (for inspecting node state).
	Cluster *cluster.Cluster
	// BUCommits is the final per-BU commit count — the exactly-once
	// accounting the fault property tests assert over (every input BU
	// maps to exactly 1 after a successful run, crashes or not).
	BUCommits map[dfs.BUID]int
	// InputBytes is the modeled input size (goodput denominator).
	InputBytes int64
	// Trace holds the run's event stream when Scenario.Trace enabled
	// tracing (nil otherwise).
	Trace *trace.Tracer
	// SimEvents is the number of discrete events the simulation fired —
	// the work unit benchmark harnesses normalize against (events/sec,
	// allocs/event).
	SimEvents uint64
	// CrossRackBytes is the traffic the topology fabric carried across
	// the oversubscribed core (0 in flat-model runs).
	CrossRackBytes int64
	// NetLinks is the per-link end-of-run fabric summary (nil in
	// flat-model runs).
	NetLinks []net.LinkStat
	// NodeHours is machine-hours consumed over the run: base nodes for
	// the whole span plus each spare's joined intervals — the cost axis
	// the autoscale experiment plots against makespan. Static runs report
	// cluster size × makespan.
	NodeHours float64
}

// JobFailedError reports a job that terminated itself — stock Hadoop
// gives a job up when one task exhausts its bounded retries under crash
// injection. The partial Result is attached so fault-tolerance harnesses
// can render the failure as an experimental outcome rather than an
// infrastructure error.
type JobFailedError struct {
	Job    string
	Engine string
	Reason string
	Result *Result
}

func (e *JobFailedError) Error() string {
	return fmt.Sprintf("runner: job %q under %s failed: %s", e.Job, e.Engine, e.Reason)
}

// buildAM constructs the selected engine's ApplicationMaster over the
// driver and returns the scheduler the RM must offer the job's capacity
// to: for SkewTune its own AM, not the stock AM inside it; for FlexMap a
// *core.AM, whose relative speeds the elastic controller reads. flexSeed
// seeds FlexMap's placement bias; the other engines draw nothing from it
// and seed no source.
func buildAM(driver *engine.Driver, eng Engine, flexSeed int64) (yarn.Scheduler, error) {
	// The split size is checked in MB: its byte count may not fit an int64.
	splitBUs := 8
	if eng.SplitMB != 0 {
		const buMB = int(dfs.BUSize / MB)
		switch {
		case eng.SplitMB < 0 || eng.SplitMB%buMB != 0:
			return nil, fmt.Errorf("runner: split size %d MB is not a positive multiple of the %d MB block unit", eng.SplitMB, buMB)
		case int64(eng.SplitMB) > math.MaxInt64/MB:
			return nil, fmt.Errorf("runner: split size %d MB overflows int64 bytes", eng.SplitMB)
		}
		splitBUs = eng.SplitMB / buMB
	}
	var err error
	var sched yarn.Scheduler
	switch eng.Kind {
	case Hadoop:
		sched, err = engine.NewStockAM(driver, splitBUs, speculate.NewLATE())
	case HadoopNoSpec:
		sched, err = engine.NewStockAM(driver, splitBUs, nil)
	case SkewTune:
		sched, err = skewtune.New(driver, splitBUs)
	case FlexMap:
		var flexAM *core.AM
		flexAM, err = core.NewAM(driver, randutil.New(flexSeed))
		if flexAM != nil {
			sched = flexAM
			flexAM.Speculation = speculate.NewLATE()
			switch eng.FlexAblation {
			case "":
			case "no-vertical":
				flexAM.NoVertical = true
			case "no-horizontal":
				flexAM.NoHorizontal = true
			case "no-bias":
				flexAM.NoReduceBias = true
			case "no-spec":
				flexAM.Speculation = nil
			default:
				err = fmt.Errorf("runner: unknown FlexMap ablation %q", eng.FlexAblation)
			}
		}
	default:
		err = fmt.Errorf("runner: unknown engine kind %q", eng.Kind)
	}
	if err != nil {
		return nil, err
	}
	return sched, nil
}

// Run executes one job under one engine and returns its result.
func Run(sc Scenario, spec mr.JobSpec, eng Engine) (*Result, error) {
	return run(sc, spec, eng, nil)
}

// run is Run with an optional wrap, which, when non-nil, stands between
// the RM and the AM: the RM offers to wrap(s, am). Tests use it to
// observe every offer.
func run(sc Scenario, spec mr.JobSpec, eng Engine, wrap func(*stack, yarn.Scheduler) yarn.Scheduler) (*Result, error) {
	if sc.Cluster == nil {
		return nil, fmt.Errorf("runner: scenario %q has no cluster factory", sc.Name)
	}
	if sc.InputSize <= 0 && sc.InputData == nil {
		return nil, fmt.Errorf("runner: scenario %q has no input", sc.Name)
	}
	if !finiteNonNegative(sc.SkewSigma) || sc.SkewSigma > MaxSigma {
		return nil, fmt.Errorf("runner: scenario %q SkewSigma %v is not in [0, %v]", sc.Name, sc.SkewSigma, MaxSigma)
	}
	if math.IsNaN(sc.NoiseSigma) || math.IsInf(sc.NoiseSigma, -1) || sc.NoiseSigma > MaxSigma {
		return nil, fmt.Errorf("runner: scenario %q NoiseSigma %v is not finite or is above %v", sc.Name, sc.NoiseSigma, MaxSigma)
	}
	if sc.Faults.Active() {
		if sc.InputData != nil {
			return nil, fmt.Errorf("runner: scenario %q combines fault injection with live input data (re-execution would duplicate live mapper output)", sc.Name)
		}
		if eng.Kind == SkewTune {
			return nil, fmt.Errorf("runner: fault injection is not supported for %s (repartition/recovery interplay is unmodeled)", eng)
		}
	}
	if sc.Membership.Active() {
		if sc.InputData != nil {
			return nil, fmt.Errorf("runner: scenario %q combines elastic membership with live input data (drain re-execution would duplicate live mapper output)", sc.Name)
		}
		if eng.Kind == SkewTune {
			return nil, fmt.Errorf("runner: elastic membership is not supported for %s (repartition/decommission interplay is unmodeled)", eng)
		}
	}

	s, err := newStack(sc)
	if err != nil {
		return nil, err
	}
	if sc.InputData != nil {
		_, err = s.store.AddFileWithData(spec.InputFile, sc.InputData)
	} else {
		_, err = s.store.AddFile(spec.InputFile, sc.InputSize)
	}
	if err != nil {
		return nil, err
	}
	if sc.SkewSigma > 0 {
		s.store.ApplySkew(randutil.New(randutil.SplitSeed(s.seed, "data-skew")), sc.SkewSigma)
	}
	// Interference is armed before the AM's heartbeat ticker and the
	// liveness watcher: same-instant ticks fire in that order.
	s.startInterference()
	driver, sched, err := s.newJob(spec, eng, s.seed, s.tracer)
	if err != nil {
		return nil, err
	}
	flexAM, _ := sched.(*core.AM)
	if wrap != nil {
		sched = wrap(s, sched)
	}
	s.rm.SetScheduler(sched)
	target := engine.NewFaultTarget(s.clus)
	target.Add(driver)
	s.addChurn(sc.Faults, sc.Membership, target)
	if s.ctl != nil && flexAM != nil {
		s.ctl.Speeds = flexAM.RelativeSpeed
	}
	driver.OnFinished(s.eng.Stop)

	s.run()
	if !driver.Finished() {
		return nil, fmt.Errorf("runner: job %q under %s did not finish by t=%v (scheduler hang?)",
			spec.Name, eng, s.deadline)
	}
	// A failed job's trace is exported too: it is the artifact you want most.
	if err := sc.Trace.Write(s.tracer); err != nil {
		return nil, err
	}
	out := &Result{
		JobResult:  driver.Result,
		Cluster:    s.clus,
		BUCommits:  driver.BUCommits(),
		InputBytes: sc.InputSize,
		Trace:      s.tracer,
		SimEvents:  s.eng.Fired(),
		NodeHours:  s.clus.NodeHours(driver.Result.Finished),
	}
	if s.fabric != nil {
		out.CrossRackBytes = s.fabric.CrossRackBytes()
		out.NetLinks = s.fabric.LinkStats()
	}
	if driver.Result.Failed {
		return nil, &JobFailedError{
			Job:    spec.Name,
			Engine: eng.String(),
			Reason: driver.Result.FailReason,
			Result: out,
		}
	}
	return out, nil
}
