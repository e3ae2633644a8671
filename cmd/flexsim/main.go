// Command flexsim runs one MapReduce job on a simulated heterogeneous
// cluster under a chosen execution engine and prints the paper's metrics
// plus optional traces: a per-attempt table (-attempts), the typed event
// trace as JSON Lines (-trace), a Chrome/Perfetto trace file (-perfetto)
// and a human-readable event timeline (-timeline).
//
// Usage:
//
//	flexsim [-cluster physical|virtual|multitenant|homogeneous|heterogeneous]
//	        [-engine hadoop|hadoop-nospec|skewtune|flexmap] [-split 64]
//	        [-bench wordcount] [-size-gb 20] [-reducers 0(auto)]
//	        [-slow-fraction 0.2] [-seed 42] [-attempts]
//	        [-topology 0(hosts/rack)] [-oversub 1]
//	        [-trace events.jsonl] [-perfetto trace.json] [-timeline]
//	        [-faults 0(crashes/node-hr)] [-fault-downtime 120]
//	        [-workload 0(jobs)] [-arrival-rate 60] [-arrivals poisson|burst]
//	        [-policy fifo|fair]
//	        [-membership 0(spares)] [-autoscale]
//
// With -workload N the command runs an open multi-job workload instead
// of one job: N arrivals of the chosen benchmark/engine (input sizes
// drawn between half and the full -size-gb), competing for containers
// under the chosen inter-job policy, printing per-job outcomes plus
// cluster-level goodput, utilization and latency percentiles. Of the
// trace outputs it writes only -trace; it rejects the single-job flags
// -input, -skew, -attempts, -json, -timeline and -perfetto.
//
// With -membership N the cluster gains N spare nodes under a seeded
// join/drain/spot-reclaim churn timeline; adding -autoscale replaces the
// churn with an occupancy-driven policy that rents spares only while the
// job backlog justifies them. Both modes report node-hours next to the
// usual metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"flexmap"
)

func main() {
	clusterName := flag.String("cluster", "physical", "cluster profile: physical, virtual, multitenant, homogeneous, heterogeneous")
	engineName := flag.String("engine", "flexmap", "engine: hadoop, hadoop-nospec, skewtune, flexmap")
	splitMB := flag.Int("split", 64, "HDFS split size in MB for hadoop/skewtune")
	benchName := flag.String("bench", "wordcount", "PUMA benchmark name")
	sizeGB := flag.Int64("size-gb", 20, "input size in GB")
	reducers := flag.Int("reducers", 0, "reduce task count (0 = one per cluster slot)")
	slowFraction := flag.Float64("slow-fraction", 0.20, "slow-node fraction for -cluster multitenant")
	nodes := flag.Int("nodes", 6, "node count for -cluster homogeneous")
	seed := flag.Int64("seed", 42, "simulation seed")
	topology := flag.Int("topology", 0, "hosts per rack for the two-level network topology (0 = legacy flat model)")
	oversub := flag.Float64("oversub", 1, "rack uplink oversubscription ratio with -topology (1 = full bisection)")
	attempts := flag.Bool("attempts", false, "print the per-attempt table")
	tracePath := flag.String("trace", "", "write the typed event trace as JSON Lines to this file")
	perfettoPath := flag.String("perfetto", "", "write a Chrome trace-event file (chrome://tracing, ui.perfetto.dev)")
	timeline := flag.Bool("timeline", false, "print the event timeline after the run")
	jsonOut := flag.String("json", "", "write the attempt records as JSON Lines to this file (sizing decisions are in -trace)")
	inputFile := flag.String("input", "", "run LIVE over this real input file (map/reduce functions execute; overrides -size-gb)")
	skew := flag.Float64("skew", 0, "lognormal sigma of per-block data-skew weights (0 = uniform; single-job runs only)")
	crashRate := flag.Float64("faults", 0, "node crash rate in crashes per node-hour (0 = no fault injection)")
	downtime := flag.Float64("fault-downtime", 120, "mean crashed-node downtime in seconds (with -faults)")
	wlJobs := flag.Int("workload", 0, "run an open multi-job workload with this many arrivals instead of one job")
	wlRate := flag.Float64("arrival-rate", 60, "workload arrivals per hour (with -workload)")
	wlProcess := flag.String("arrivals", "poisson", "workload arrival process: poisson, burst (with -workload)")
	wlPolicy := flag.String("policy", "fair", "workload inter-job policy: fifo, fair (with -workload)")
	spares := flag.Int("membership", 0, "provision this many spare nodes under a seeded join/drain churn timeline (0 = static fleet)")
	autoscale := flag.Bool("autoscale", false, "drive the -membership spare pool from RM occupancy instead of seeded churn")
	flag.Parse()
	if err := checkFlags(*nodes, *wlJobs, *spares, *topology, *slowFraction, *sizeGB); err != nil {
		fatalf("%v", err)
	}

	var membership flexmap.MembershipPlan
	if *spares > 0 {
		membership = flexmap.MembershipPlan{
			Spares:        *spares,
			JoinsPerHour:  6,
			LeavesPerHour: 2,
			SpotFraction:  0.25,
		}
		if *autoscale {
			membership.JoinsPerHour, membership.LeavesPerHour, membership.SpotFraction = 0, 0, 0
			membership.Autoscale = &flexmap.AutoscalePolicy{}
		}
	} else if *autoscale {
		fatalf("-autoscale needs a spare pool; set -membership N")
	}

	var factory flexmap.ClusterFactory
	switch *clusterName {
	case "physical":
		factory = flexmap.ClusterPhysical12
	case "virtual":
		factory = flexmap.ClusterVirtual20(*seed)
	case "multitenant":
		factory = flexmap.ClusterMultiTenant40(*slowFraction, *seed)
	case "homogeneous":
		factory = flexmap.ClusterHomogeneous(*nodes)
	case "heterogeneous":
		factory = flexmap.ClusterHeterogeneous6
	default:
		fatalf("unknown cluster %q", *clusterName)
	}
	factory = flexmap.WithTopology(factory, *topology, *oversub)

	clus, _ := factory()
	r := *reducers
	if r == 0 {
		r = clus.TotalSlots()
		if *wlJobs > 0 {
			// Concurrent jobs share the cluster: default to one reducer
			// per node per job rather than one per slot.
			r = clus.Size()
		}
	}
	spec, err := flexmap.PUMASpec(flexmap.Benchmark(*benchName), r)
	if err != nil {
		fatalf("%v", err)
	}

	eng0 := flexmap.Engine{Kind: flexmap.EngineKind(*engineName), SplitMB: *splitMB}
	if *wlJobs > 0 {
		if *inputFile != "" {
			fatalf("-workload runs modeled inputs only; drop -input")
		}
		if *skew != 0 {
			fatalf("-workload does not model data skew; drop -skew")
		}
		for _, f := range []struct {
			name string
			set  bool
		}{{"-attempts", *attempts}, {"-json", *jsonOut != ""}, {"-timeline", *timeline}} {
			if f.set {
				fatalf("-workload prints per-job outcomes, not one job's attempts or timeline; drop %s", f.name)
			}
		}
		runWorkload(workloadArgs{
			clusterName: *clusterName,
			factory:     factory,
			spec:        spec,
			eng:         eng0,
			seed:        *seed,
			jobs:        *wlJobs,
			rate:        *wlRate,
			process:     *wlProcess,
			policy:      *wlPolicy,
			sizeBytes:   *sizeGB * flexmap.GB,
			crashRate:   *crashRate,
			downtime:    *downtime,
			membership:  membership,
			trace:       flexmap.TraceOptions{JSONLPath: *tracePath, PerfettoPath: *perfettoPath},
		})
		return
	}

	sc := flexmap.Scenario{
		Name:       *clusterName,
		Cluster:    factory,
		Seed:       *seed,
		InputSize:  *sizeGB * flexmap.GB,
		SkewSigma:  *skew,
		Faults:     flexmap.FaultPlan{CrashRate: *crashRate, MeanDowntime: flexmap.Duration(*downtime)},
		Membership: membership,
		Trace: flexmap.TraceOptions{
			Collect:      *timeline,
			JSONLPath:    *tracePath,
			PerfettoPath: *perfettoPath,
		},
	}
	if *inputFile != "" {
		data, err := os.ReadFile(*inputFile)
		if err != nil {
			fatalf("%v", err)
		}
		sc.InputSize = 0
		sc.InputData = data
	}
	eng := eng0
	res, err := flexmap.Run(sc, spec, eng)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("job        %s on %s under %s (seed %d)\n", spec.Name, res.Cluster.Name, eng, *seed)
	fmt.Printf("JCT        %.1fs\n", float64(res.JCT()))
	fmt.Printf("map phase  %.1fs\n", float64(res.MapPhaseRuntime()))
	fmt.Printf("efficiency %.3f (Eq. 2)\n", res.Efficiency())
	maps := res.MapAttempts()
	prod := 0.0
	for _, a := range maps {
		prod += a.Productivity()
	}
	if len(maps) > 0 {
		fmt.Printf("mean map productivity %.3f over %d tasks (Eq. 1)\n", prod/float64(len(maps)), len(maps))
	}
	fmt.Printf("speculative launches %d, remote bytes %d MB, repartitioned %d MB\n",
		res.SpeculativeLaunches, res.RemoteBytesRead/flexmap.MB, res.RepartitionBytes/flexmap.MB)
	if res.NetLinks != nil {
		peak := 0.0
		for _, ls := range res.NetLinks {
			if ls.Util > peak {
				peak = ls.Util
			}
		}
		fmt.Println(networkLine(res.CrossRackBytes/flexmap.MB, peak, *topology, *oversub))
	}
	if sc.Faults.Active() {
		fmt.Printf("faults     %d nodes lost (%d rejoined), %d attempts crashed\n",
			res.NodesLost, res.NodesRejoined, res.AttemptsCrashed)
		fmt.Printf("recovery   %d task retries, %d MB re-processed, %d output BUs lost, goodput %.3f\n",
			res.TaskRetries, res.ReprocessedBytes/flexmap.MB, res.OutputBUsLost, res.Goodput(res.InputBytes))
	}
	if sc.Membership.Active() {
		fmt.Printf("elastic    %d spares provisioned, %.2f node-hours consumed, %d preemptions\n",
			sc.Membership.Spares, res.NodeHours, res.Preemptions)
	}
	if len(res.Output) > 0 {
		fmt.Printf("live output: %d distinct keys\n", len(res.Output))
	}

	if *jsonOut != "" {
		if err := writeJSONTrace(*jsonOut, res); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("attempt trace written to %s\n", *jsonOut)
	}

	if *attempts {
		fmt.Println("\ntask trace:")
		for _, a := range res.Attempts {
			status := "ok"
			if a.Crashed {
				status = "crashed"
			} else if a.Killed {
				status = "killed"
			}
			fmt.Printf("  %-14s %-6s node=%-2d wave=%-2d start=%7.1f end=%7.1f size=%4dMB local=%d/%d prod=%.2f %s\n",
				a.Task, a.Type, a.Node, a.Wave, float64(a.Start), float64(a.End),
				a.Bytes/flexmap.MB, a.LocalBUs, a.BUs, a.Productivity(), status)
		}
	}

	if *timeline && res.Trace != nil {
		fmt.Println("\nevent timeline:")
		fmt.Print(flexmap.RenderTimeline(res.Trace.Events()))
	}
	if res.Trace != nil {
		// Event counts by kind, in order of first occurrence.
		counts := map[string]int{}
		var kinds []string
		for _, e := range res.Trace.Events() {
			k := e.Kind.String()
			if counts[k] == 0 {
				kinds = append(kinds, k)
			}
			counts[k]++
		}
		fmt.Println("\ntrace events:")
		for _, k := range kinds {
			fmt.Printf("  %-26s %d\n", k, counts[k])
		}
		fmt.Printf("  %-26s %d\n", "sim events fired", res.SimEvents)
	}
	if *tracePath != "" {
		fmt.Printf("event trace written to %s\n", *tracePath)
	}
	if *perfettoPath != "" {
		fmt.Printf("perfetto trace written to %s\n", *perfettoPath)
	}
}

// writeJSONTrace dumps every attempt record as JSON Lines for downstream
// analysis. FlexMap's sizing decisions are in the -trace event log.
func writeJSONTrace(path string, res *flexmap.RunResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, a := range res.Attempts {
		rec := map[string]any{
			"kind": "attempt", "task": a.Task, "type": a.Type.String(),
			"node": a.Node, "wave": a.Wave, "start": float64(a.Start),
			"end": float64(a.End), "bytes": a.Bytes, "bus": a.BUs,
			"localBUs": a.LocalBUs, "speculative": a.Speculative,
			"killed": a.Killed, "crashed": a.Crashed, "productivity": a.Productivity(),
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// workloadArgs bundles the -workload mode's inputs.
type workloadArgs struct {
	clusterName string
	factory     flexmap.ClusterFactory
	spec        flexmap.JobSpec
	eng         flexmap.Engine
	seed        int64
	jobs        int
	rate        float64 // arrivals per hour
	process     string
	policy      string
	sizeBytes   int64
	crashRate   float64
	downtime    float64
	membership  flexmap.MembershipPlan
	trace       flexmap.TraceOptions
}

// runWorkload runs the open multi-job mode and prints per-job outcomes
// plus the cluster-level summary.
func runWorkload(a workloadArgs) {
	sc := flexmap.WorkloadScenario{
		Name:    a.clusterName,
		Cluster: a.factory,
		Seed:    a.seed,
		Pattern: flexmap.ArrivalPattern{
			Jobs:    a.jobs,
			Rate:    a.rate / 3600,
			Process: flexmap.Poisson,
		},
		Classes: []flexmap.WorkloadClass{{
			Name:     a.spec.Name,
			Weight:   1,
			MinBytes: a.sizeBytes / 2,
			MaxBytes: a.sizeBytes,
			Engine:   a.eng,
			Spec:     a.spec,
		}},
		Policy:     a.policy,
		Faults:     flexmap.FaultPlan{CrashRate: a.crashRate, MeanDowntime: flexmap.Duration(a.downtime)},
		Membership: a.membership,
		Trace:      a.trace,
	}
	switch a.process {
	case "poisson":
	case "burst":
		sc.Pattern.Process = flexmap.Burst
	default:
		fatalf("unknown arrival process %q", a.process)
	}

	res, err := flexmap.RunWorkload(sc)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("workload   %d × %s on %s under %s, %s policy (seed %d)\n",
		a.jobs, a.spec.Name, a.clusterName, a.eng, res.Policy, a.seed)
	fmt.Printf("outcome    %d completed, %d failed, peak %d jobs in flight\n",
		res.Completed, res.Failed, res.MaxConcurrent)
	fmt.Printf("span       %.1fs\n", float64(res.Span))
	fmt.Printf("goodput    %.2f MB/s\n", res.GoodputBytesPerSec/float64(flexmap.MB))
	fmt.Printf("utilization %.3f\n", res.Utilization)
	fmt.Printf("latency    p50 %.1fs  p95 %.1fs  p99 %.1fs\n",
		float64(res.LatencyP50), float64(res.LatencyP95), float64(res.LatencyP99))
	fmt.Printf("queue wait %.1fs mean\n", float64(res.MeanQueueWait))
	if a.membership.Active() {
		fmt.Printf("elastic    %d spares provisioned, %.2f node-hours consumed\n",
			a.membership.Spares, res.NodeHours)
	}

	fmt.Println("\njobs:")
	for _, j := range res.Jobs {
		status := "ok"
		if j.Failed {
			status = "FAILED " + j.FailReason
		}
		fmt.Printf("  %-6s %-14s %6dMB  submit=%8.1f  finish=%8.1f  latency=%7.1fs  wait=%5.1fs  %s\n",
			j.ID, j.Engine, j.InputBytes/flexmap.MB, float64(j.Submitted), float64(j.Finished),
			float64(j.Latency), float64(j.QueueWait), status)
	}
	if a.trace.JSONLPath != "" {
		fmt.Printf("\nevent trace written to %s\n", a.trace.JSONLPath)
	}
}

// networkLine reports the fabric of a topology run. It prints the
// oversubscription ratio the fabric runs at, so -oversub 0 reads 1:1.
func networkLine(crossRackMB int64, peak float64, hostsPerRack int, oversub float64) string {
	ratio := (&flexmap.TopologySpec{HostsPerRack: hostsPerRack, Oversub: oversub}).Ratio()
	return fmt.Sprintf("network    %d MB cross-rack, peak link utilization %.3f (topology %d hosts/rack, %g:1 oversub)",
		crossRackMB, peak, hostsPerRack, ratio)
}

// checkFlags rejects out-of-range flag values before any mode reads
// them. A negative -workload, -membership or -topology would otherwise
// select the single-job, static-fleet or flat-network mode as zero does,
// and a -size-gb whose byte count overflows int64 would wrap negative.
func checkFlags(nodes, jobs, spares, hostsPerRack int, slowFraction float64, sizeGB int64) error {
	switch {
	case nodes < 1:
		return fmt.Errorf("-nodes %d: need at least one node", nodes)
	case !(slowFraction >= 0 && slowFraction <= 1):
		return fmt.Errorf("-slow-fraction %v: must lie in [0,1]", slowFraction)
	case jobs < 0:
		return fmt.Errorf("-workload %d: job count must not be negative", jobs)
	case spares < 0:
		return fmt.Errorf("-membership %d: spare count must not be negative", spares)
	case hostsPerRack < 0:
		return fmt.Errorf("-topology %d: hosts per rack must not be negative", hostsPerRack)
	case sizeGB > math.MaxInt64/flexmap.GB || sizeGB < math.MinInt64/flexmap.GB:
		return fmt.Errorf("-size-gb %d: byte count overflows int64", sizeGB)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flexsim: "+format+"\n", args...)
	os.Exit(1)
}
