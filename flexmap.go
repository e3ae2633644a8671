// Package flexmap is a Go reproduction of "Addressing Performance
// Heterogeneity in MapReduce Clusters with Elastic Tasks" (Chen, Rao,
// Zhou — IEEE IPDPS 2017).
//
// It provides a deterministic discrete-event MapReduce/YARN cluster
// simulator with four interchangeable map-execution engines:
//
//   - Hadoop       — stock Hadoop with LATE speculation
//   - HadoopNoSpec — stock Hadoop, speculation disabled
//   - SkewTune     — stop-and-repartition skew mitigation
//   - FlexMap      — the paper's contribution: elastic multi-block map
//     tasks with late binding, speed monitoring, dynamic
//     sizing, and capacity-biased reduce dispatch
//
// A run is described by a Scenario (cluster profile + input data + seed)
// and a job spec; Run executes it and returns the paper's metrics (job
// completion time, Eq. 1 productivity, Eq. 2 efficiency) plus the full
// attempt trace.
//
//	sc := flexmap.Scenario{
//	    Name:      "quickstart",
//	    Cluster:   flexmap.ClusterHeterogeneous6,
//	    Seed:      1,
//	    InputSize: 2 * flexmap.GB,
//	}
//	spec, _ := flexmap.PUMASpec(flexmap.WordCount, 6)
//	res, _ := flexmap.Run(sc, spec, flexmap.Engine{Kind: flexmap.FlexMap})
//	fmt.Println(res.JCT(), res.Efficiency())
//
// The experiment harnesses that regenerate every table and figure of the
// paper live in internal/experiments and are runnable via cmd/paperfigs.
package flexmap

import (
	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/elastic"
	"flexmap/internal/faults"
	"flexmap/internal/mr"
	"flexmap/internal/net"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
	"flexmap/internal/workload"
)

// Re-exported size units.
const (
	MB = runner.MB
	GB = runner.GB
)

// BUSize is the FlexMap block unit (8 MB).
const BUSize = dfs.BUSize

// DefaultNoiseSigma is the default lognormal sigma of per-task runtime
// noise; set Scenario.NoiseSigma negative to disable noise.
const DefaultNoiseSigma = runner.DefaultNoiseSigma

// Type aliases so callers need only this package for common use.
type (
	// JobSpec describes a MapReduce job (see internal/mr).
	JobSpec = mr.JobSpec
	// JobResult is a completed run's metrics and attempt trace.
	JobResult = mr.JobResult
	// AttemptRecord is one task attempt in the trace.
	AttemptRecord = mr.AttemptRecord
	// Cluster is a set of worker nodes.
	Cluster = cluster.Cluster
	// Interferer perturbs node speeds over time.
	Interferer = cluster.Interferer
	// TopologySpec describes a two-level rack/core network topology
	// (Cluster.Topology; nil keeps the legacy flat network model).
	TopologySpec = cluster.TopologySpec
	// NetLinkStat is one fabric link's end-of-run byte count and peak
	// utilization (RunResult.NetLinks; topology runs only).
	NetLinkStat = net.LinkStat
	// Benchmark names a PUMA workload.
	Benchmark = puma.Benchmark
	// EngineKind selects a map-execution engine.
	EngineKind = runner.EngineKind
	// Engine selects an engine plus its parameters.
	Engine = runner.Engine
	// ClusterFactory builds a fresh cluster per run.
	ClusterFactory = runner.ClusterFactory
	// Scenario describes the fixed conditions of a comparison.
	Scenario = runner.Scenario
	// RunResult bundles a JobResult with the run's cluster, commit
	// counts and event trace.
	RunResult = runner.Result
	// FaultPlan parameterizes seeded node-crash injection. The zero value
	// injects nothing.
	FaultPlan = faults.Plan
	// FaultEvent is one scheduled node crash.
	FaultEvent = faults.Event
	// MembershipPlan parameterizes elastic cluster membership: spare
	// nodes joining, draining out gracefully, or being reclaimed as spot
	// capacity (Scenario.Membership / WorkloadScenario.Membership). The
	// zero value provisions nothing.
	MembershipPlan = elastic.Plan
	// MembershipEvent is one scheduled membership change
	// (MembershipPlan.Script).
	MembershipEvent = elastic.Event
	// AutoscalePolicy drives a MembershipPlan's spare pool reactively
	// from ResourceManager occupancy (MembershipPlan.Autoscale); the zero
	// value of every knob picks the documented default.
	AutoscalePolicy = elastic.Autoscaler
	// NodeSpec describes one node's hardware (MembershipPlan.SpareSpec).
	NodeSpec = cluster.NodeSpec
	// Duration is a span of simulated time in seconds.
	Duration = sim.Duration
	// TraceOptions selects event tracing for a run (Scenario.Trace). The
	// zero value disables tracing and costs nothing.
	TraceOptions = trace.Options
	// Tracer holds a traced run's event stream, its only telemetry
	// record (RunResult.Trace; nil unless the scenario enabled tracing).
	Tracer = trace.Tracer
	// TraceEvent is one typed simulation event, stamped with virtual time.
	TraceEvent = trace.Event
	// WorkloadScenario describes an open multi-job run: seeded arrivals
	// sharing one cluster and RM under an inter-job policy.
	WorkloadScenario = runner.WorkloadScenario
	// WorkloadClass is one entry of a workload's job mix.
	WorkloadClass = runner.WorkloadClass
	// WorkloadResult aggregates a workload run (per-job outcomes plus
	// goodput, utilization and latency percentiles).
	WorkloadResult = runner.WorkloadResult
	// JobOutcome is one job's result within a workload run.
	JobOutcome = runner.JobOutcome
	// ArrivalPattern shapes workload job arrivals (Poisson or burst).
	ArrivalPattern = workload.Pattern
)

// Workload arrival processes, re-exported.
const (
	Poisson = workload.Poisson
	Burst   = workload.Burst
)

// Membership event kinds, re-exported (MembershipEvent.Kind).
const (
	MembershipJoin  = elastic.Join
	MembershipDrain = elastic.Drain
	MembershipSpot  = elastic.Spot
)

// RunWorkload executes an open multi-job workload under the scenario's
// inter-job policy and returns per-job outcomes plus cluster metrics.
func RunWorkload(sc WorkloadScenario) (*WorkloadResult, error) {
	return runner.RunWorkload(sc)
}

// RenderTimeline renders collected trace events as a chronological text
// timeline (heartbeats summarized per node at the end).
func RenderTimeline(events []TraceEvent) string { return trace.RenderTimeline(events) }

// PUMA benchmark names, re-exported.
const (
	WordCount        = puma.WordCount
	InvertedIndex    = puma.InvertedIndex
	TermVector       = puma.TermVector
	Grep             = puma.Grep
	KMeans           = puma.KMeans
	HistogramMovies  = puma.HistogramMovies
	HistogramRatings = puma.HistogramRatings
	TeraSort         = puma.TeraSort
)

// The four engines the paper evaluates.
const (
	Hadoop       = runner.Hadoop
	HadoopNoSpec = runner.HadoopNoSpec
	SkewTune     = runner.SkewTune
	FlexMap      = runner.FlexMap
)

// ClusterPhysical12 is the 12-node Table I hardware mix.
func ClusterPhysical12() (*Cluster, Interferer) { return cluster.Physical12(), nil }

// ClusterHeterogeneous6 is the 6-node heterogeneous cluster of Fig. 3(d).
func ClusterHeterogeneous6() (*Cluster, Interferer) { return cluster.Heterogeneous6(), nil }

// ClusterHomogeneous returns a factory for an n-node uniform cluster
// with the paper profiles' per-node slot count.
func ClusterHomogeneous(n int) ClusterFactory {
	return func() (*Cluster, Interferer) { return cluster.HomogeneousPaper(n), nil }
}

// ClusterVirtual20 returns a factory for the 20-node virtual cluster with
// seeded dynamic interference.
func ClusterVirtual20(seed int64) ClusterFactory {
	return func() (*Cluster, Interferer) {
		c, inf := cluster.Virtual20(seed)
		return c, inf
	}
}

// ClusterMultiTenant40 returns a factory for the 40-node multi-tenant
// cluster with the given slow-node fraction.
func ClusterMultiTenant40(slowFraction float64, seed int64) ClusterFactory {
	return func() (*Cluster, Interferer) {
		return cluster.MultiTenant40(slowFraction, seed)
	}
}

// WithTopology wraps a cluster factory so every built cluster carries a
// two-level network topology: racks of hostsPerRack nodes (contiguous
// NodeIDs), host access links at the cluster's NetBW, and rack core
// links oversubscribed by the given ratio (1 = full bisection). Runs on
// such a cluster route remote map fetches and the reduce shuffle through
// the fabric with deterministic max-min fair sharing; hostsPerRack <= 0
// returns the factory unchanged (legacy flat model).
func WithTopology(factory ClusterFactory, hostsPerRack int, oversub float64) ClusterFactory {
	if hostsPerRack <= 0 {
		return factory
	}
	return func() (*Cluster, Interferer) {
		c, inf := factory()
		c.Topology = &TopologySpec{HostsPerRack: hostsPerRack, Oversub: oversub}
		return c, inf
	}
}

// PUMASpec builds the job spec for a PUMA benchmark reading the
// scenario's input file ("input"), with real map/reduce functions
// attached for live runs. See puma.Spec.
func PUMASpec(b Benchmark, reducers int) (JobSpec, error) {
	return puma.Spec(b, "input", reducers)
}

// Run executes one job under one engine and returns its result.
func Run(sc Scenario, spec JobSpec, eng Engine) (*RunResult, error) {
	return runner.Run(sc, spec, eng)
}
