// Package runner wires one complete simulated job run: cluster, DFS,
// ResourceManager, driver, and the selected ApplicationMaster. The public
// flexmap package re-exports it; internal experiment harnesses use it
// directly.
package runner

import (
	"fmt"
	"strings"

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
	// capacity-biased sampling), "even" forces the stock policy, and
	// "greedy" installs the traffic-aware greedy placer — the nethint-
	// style baseline the netplace experiment compares against.
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
	case "even":
		d.ReducePlacer = engine.EvenReducePlacer
	case "greedy":
		d.ReducePlacer = engine.GreedyReducePlacer
	default:
		return fmt.Errorf("runner: unknown reduce placement %q", eng.ReducePlacement)
	}
	return nil
}

// validateNet rejects network parameters that would silently produce
// +Inf/NaN transfer durations: a non-positive flat NetBW, or a topology
// spec with empty racks or zero-capacity links.
func validateNet(name string, c *cluster.Cluster) error {
	if c.NetBW <= 0 {
		return fmt.Errorf("runner: %q: cluster %q NetBW %v MB/s is not positive (fetch durations would be +Inf/NaN)",
			name, c.Name, c.NetBW)
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(c.NetBW); err != nil {
			return fmt.Errorf("runner: %q: %w", name, err)
		}
	}
	return nil
}

// recordNetStats stamps the fabric's end-of-run link gauges: every rack
// link individually (oversubscription saturates these), plus fleet-wide
// totals and maxima over the host access links, which would be 2N
// separate gauges on a big cluster.
func recordNetStats(tracer *trace.Tracer, fabric *net.Fabric, until sim.Time) {
	if tracer == nil || fabric == nil {
		return
	}
	var upBytes, downBytes int64
	var upMax, downMax float64
	for _, ls := range fabric.LinkStats(until) {
		switch {
		case strings.HasPrefix(ls.Name, "rack"):
			tracer.NetLinkStats(ls.Name, ls.Bytes, ls.Util)
		case strings.HasSuffix(ls.Name, "-up"):
			upBytes += ls.Bytes
			if ls.Util > upMax {
				upMax = ls.Util
			}
		default:
			downBytes += ls.Bytes
			if ls.Util > downMax {
				downMax = ls.Util
			}
		}
	}
	tracer.NetLinkStats("hosts-up-max", upBytes, upMax)
	tracer.NetLinkStats("hosts-down-max", downBytes, downMax)
}

// ClusterFactory builds a fresh cluster (and optional interference
// process) for each run, so every engine sees identical conditions.
type ClusterFactory func() (*cluster.Cluster, cluster.Interferer)

// DefaultNoiseSigma is the default lognormal sigma of per-task runtime
// noise, calibrated so same-size map runtimes spread roughly as the
// paper's Fig. 1(a) histogram.
const DefaultNoiseSigma = 0.25

// Scenario describes the fixed conditions of a comparison: cluster, data
// placement seed, input. Running the same scenario under different
// engines is an apples-to-apples comparison — placement, interference,
// and all stochastic choices derive from Seed.
type Scenario struct {
	Name    string
	Cluster ClusterFactory
	Seed    int64

	// Replication is the HDFS replication factor (default 3).
	Replication int
	// Cost overrides the calibrated cost model when non-zero.
	Cost engine.CostModel

	// InputSize creates a modeled input file of this many bytes.
	// InputData, when non-nil, creates a real file instead, enabling live
	// map/reduce execution with verifiable output.
	InputSize int64
	InputData []byte

	// NoiseSigma is the lognormal sigma of per-task runtime noise
	// (0 = DefaultNoiseSigma; negative disables noise).
	NoiseSigma float64

	// SkewSigma, when positive, assigns every stored block unit a
	// lognormal processing-cost weight (mean 1) — computational data
	// skew, the phenomenon SkewTune targets.
	SkewSigma float64

	// Faults injects seeded node crashes, transient slowdowns and
	// container preemptions (see internal/faults). The zero value injects
	// nothing and adds nothing to the run — no watcher, no injector, no
	// extra events — so fault-free output is byte-identical with or
	// without this field existing. The schedule derives from Seed via the
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

// Result bundles the job result with engine-specific traces.
type Result struct {
	*mr.JobResult
	// SizeTrace is FlexMap's dispatched task sizes (nil for others).
	SizeTrace []core.SizeSample
	// Cluster is the post-run cluster (for inspecting node state).
	Cluster *cluster.Cluster
	// BUCommits is the final per-BU commit count — the exactly-once
	// accounting the fault property tests assert over (every input BU
	// maps to exactly 1 after a successful run, crashes or not).
	BUCommits map[dfs.BUID]int
	// InputBytes is the modeled input size (goodput denominator).
	InputBytes int64
	// Trace holds the run's event stream and metrics registry when
	// Scenario.Trace enabled tracing (nil otherwise).
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
// driver. flexRng seeds FlexMap's placement bias (ignored by the other
// engines). The returned *core.AM is non-nil only for FlexMap, whose
// size trace the caller may want.
func buildAM(driver *engine.Driver, eng Engine, flexRng *randutil.Source) (*core.AM, error) {
	splitBUs := 8
	if eng.SplitMB != 0 {
		if int64(eng.SplitMB)*MB%dfs.BUSize != 0 {
			return nil, fmt.Errorf("runner: split size %d MB is not a multiple of the 8 MB block unit", eng.SplitMB)
		}
		splitBUs = int(int64(eng.SplitMB) * MB / dfs.BUSize)
	}
	var err error
	var flexAM *core.AM
	switch eng.Kind {
	case Hadoop:
		_, err = engine.NewStockAM(driver, splitBUs, speculate.NewLATE())
	case HadoopNoSpec:
		_, err = engine.NewStockAM(driver, splitBUs, nil)
	case SkewTune:
		_, err = skewtune.New(driver, splitBUs)
	case FlexMap:
		flexAM, err = core.NewAM(driver, flexRng)
		if flexAM != nil {
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
	return flexAM, nil
}

// Run executes one job under one engine and returns its result.
func Run(sc Scenario, spec mr.JobSpec, eng Engine) (*Result, error) {
	if sc.Cluster == nil {
		return nil, fmt.Errorf("runner: scenario %q has no cluster factory", sc.Name)
	}
	if sc.InputSize <= 0 && sc.InputData == nil {
		return nil, fmt.Errorf("runner: scenario %q has no input", sc.Name)
	}

	simEng := sim.New()
	if sc.OnFire != nil {
		simEng.SetFireObserver(sc.OnFire)
	}
	clus, interferer := sc.Cluster()
	// Spares must exist before anything sizes per-node state off the
	// cluster (DFS placement, RM slots, driver, topology racks); they
	// start offline, store no blocks, and draw no randomness, so the base
	// fleet's run is untouched until a join fires.
	var spares []cluster.NodeID
	if sc.Membership.Active() {
		spares = clus.AddSpares(sc.Membership.Spares, sc.Membership.SpareSpec)
	}
	if err := validateNet(sc.Name, clus); err != nil {
		return nil, err
	}
	rng := randutil.New(sc.Seed)

	store := dfs.NewStore(clus, sc.Replication, rng.Split("placement"))
	var err error
	if sc.InputData != nil {
		_, err = store.AddFileWithData(spec.InputFile, sc.InputData)
	} else {
		_, err = store.AddFile(spec.InputFile, sc.InputSize)
	}
	if err != nil {
		return nil, err
	}
	if sc.SkewSigma > 0 {
		store.ApplySkew(rng.Split("data-skew"), sc.SkewSigma)
	}

	cost := sc.Cost
	if cost == (engine.CostModel{}) {
		cost = engine.DefaultCostModel()
	}
	rm := yarn.NewRM(simEng, clus)
	driver, err := engine.NewDriver(simEng, clus, store, rm, cost, spec)
	if err != nil {
		return nil, err
	}
	var tracer *trace.Tracer
	if sc.Trace.Enabled() {
		tracer = trace.New(simEng)
		driver.Trace = tracer
	}
	var fabric *net.Fabric
	if clus.Topology != nil {
		fabric, err = net.New(simEng, clus)
		if err != nil {
			return nil, err
		}
		fabric.Trace = tracer
		driver.Net = fabric
	}
	driver.Noise = rng.Split("runtime-noise")
	driver.NoiseSigma = sc.NoiseSigma
	if sc.NoiseSigma == 0 {
		driver.NoiseSigma = DefaultNoiseSigma
	}
	if interferer != nil {
		interferer.Start(simEng)
		driver.OnFinished(interferer.Stop)
	}

	flexAM, err := buildAM(driver, eng, rng.Split("flexmap"))
	if err != nil {
		return nil, err
	}
	if err := applyReducePlacement(driver, eng); err != nil {
		return nil, err
	}
	// The engine label is authoritative here: StockAM names itself
	// "hadoop-<split>m" whether or not speculation is enabled, which
	// would collide in comparisons that include the no-spec ablation.
	driver.Result.Engine = eng.String()

	var watcher *yarn.NodeWatcher
	if sc.Faults.Active() {
		if sc.InputData != nil {
			return nil, fmt.Errorf("runner: scenario %q combines fault injection with live input data (re-execution would duplicate live mapper output)", sc.Name)
		}
		if eng.Kind == SkewTune {
			return nil, fmt.Errorf("runner: fault injection is not supported for %s (repartition/recovery interplay is unmodeled)", eng)
		}
		watcher = yarn.NewNodeWatcher(simEng, clus, rm)
		watcher.Trace = tracer
		driver.AttachWatcher(watcher)
		inj := faults.NewInjector(simEng, clus,
			sc.Faults.Schedule(rng.Split("faults").Seed(), clus.Size()), driver)
		inj.Trace = tracer
		driver.OnFinished(inj.Stop)
		inj.Start()
	}

	var ctl *elastic.Controller
	if sc.Membership.Active() {
		if sc.InputData != nil {
			return nil, fmt.Errorf("runner: scenario %q combines elastic membership with live input data (drain re-execution would duplicate live mapper output)", sc.Name)
		}
		if eng.Kind == SkewTune {
			return nil, fmt.Errorf("runner: elastic membership is not supported for %s (repartition/decommission interplay is unmodeled)", eng)
		}
		ctl = elastic.NewController(simEng, clus, rm, sc.Membership, spares)
		ctl.Trace = tracer
		ctl.AddDrainer(driver)
		if watcher != nil {
			ctl.SetWatcher(watcher)
		}
		if flexAM != nil {
			ctl.Speeds = flexAM.RelativeSpeed
		}
		driver.OnFinished(ctl.Stop)
		ctl.Start(rng.Split("membership").Seed())
	}

	rm.Start()
	deadline := sc.MaxSimTime
	if deadline == 0 {
		deadline = 30 * 24 * 3600
	}
	simEng.RunUntil(deadline)
	tracer.FinalizeRun()
	recordNetStats(tracer, fabric, driver.Result.Finished)
	nodeHours := float64(clus.Size()) * float64(driver.Result.Finished) / 3600
	if ctl != nil {
		nodeHours = ctl.NodeHours(driver.Result.Finished)
	}
	if driver.Result.Failed {
		// Export what was collected: a failed job's trace is the artifact
		// you want most.
		if err := sc.Trace.Write(tracer); err != nil {
			return nil, err
		}
		return nil, &JobFailedError{
			Job:    spec.Name,
			Engine: eng.String(),
			Reason: driver.Result.FailReason,
			Result: &Result{
				JobResult:  driver.Result,
				Cluster:    clus,
				BUCommits:  driver.BUCommits(),
				InputBytes: sc.InputSize,
				Trace:      tracer,
				SimEvents:  simEng.Fired(),
				NodeHours:  nodeHours,
			},
		}
	}
	if !driver.Finished() {
		return nil, fmt.Errorf("runner: job %q under %s did not finish by t=%v (scheduler hang?)",
			spec.Name, eng, deadline)
	}

	if err := sc.Trace.Write(tracer); err != nil {
		return nil, err
	}
	out := &Result{
		JobResult:  driver.Result,
		Cluster:    clus,
		BUCommits:  driver.BUCommits(),
		InputBytes: sc.InputSize,
		Trace:      tracer,
		SimEvents:  simEng.Fired(),
		NodeHours:  nodeHours,
	}
	if flexAM != nil {
		out.SizeTrace = flexAM.SizeTrace
	}
	if fabric != nil {
		out.CrossRackBytes = fabric.CrossRackBytes()
		out.NetLinks = fabric.LinkStats(driver.Result.Finished)
	}
	return out, nil
}
