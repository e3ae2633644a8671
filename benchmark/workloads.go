package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/faults"
	"flexmap/internal/mr"
	"flexmap/internal/puma"
	"flexmap/internal/randutil"
	"flexmap/internal/runner"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
	"flexmap/internal/workload"
)

// A workload is a fixed list of simulations. One round runs each of them
// once, in order, each in its own child process.
type workloadDef struct {
	name string
	sims []string
	run  func(sim string, seed int64, p *probe) (outcome, error)
	// place stores the workload's inputs in a fresh DFS the way the
	// simulations do, so that placement can be timed on its own.
	place func(seed int64) error
}

// outcome is what one simulation hands back for checking: a digest of
// its simulated outputs and the number of events it fired (0 where the
// harness does not expose the count).
type outcome struct {
	digest string
	events uint64
}

var workloads = []workloadDef{
	{name: "fleet-10k", sims: engines, run: runFleet, place: placeSingle(fleetNodes, fleetBUs)},
	{name: "multijob-200", sims: multiSims, run: runMultijob, place: placeMultijob},
	{name: "rack-2000", sims: engines, run: runRack, place: placeSingle(rackNodes, rackBUs)},
	{name: "paper", sims: []string{"all"}, run: runPaper, place: placePaper},
}

// The single-job workloads' sizes: nodes and input BUs per node. Each
// simulation takes a few host seconds, so that a run holds many of them.
const (
	fleetNodes, fleetBUs = 10000, 2
	rackNodes, rackBUs   = 2000, 8
)

// engines is the order the single-engine workloads run in: stock Hadoop
// with LATE speculation, then FlexMap.
var engines = []string{string(runner.Hadoop), string(runner.FlexMap)}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// benchSpeeds cycles the paper testbed's four machine generations.
var benchSpeeds = []float64{1.0, 1.5, 2.4, 2.8}

// benchCluster is n two-slot nodes whose speeds cycle benchSpeeds, with
// an optional rack topology.
func benchCluster(n int, topo *cluster.TopologySpec) runner.ClusterFactory {
	return func() (*cluster.Cluster, cluster.Interferer) {
		specs := make([]cluster.NodeSpec, n)
		for i := range specs {
			specs[i] = cluster.NodeSpec{
				Name:      fmt.Sprintf("bench-%03d", i),
				BaseSpeed: benchSpeeds[i%len(benchSpeeds)],
				Slots:     2,
			}
		}
		c := cluster.NewCluster(fmt.Sprintf("bench-%d", n), specs)
		c.Topology = topo
		return c, nil
	}
}

// singleJob is one WordCount job over bus BUs per node with n/4 reducers.
func singleJob(n, bus int, topo *cluster.TopologySpec, seed int64) (runner.Scenario, mr.JobSpec, error) {
	sc := runner.Scenario{
		Name:      fmt.Sprintf("n%d", n),
		Cluster:   benchCluster(n, topo),
		Seed:      seed,
		InputSize: int64(n*bus) * dfs.BUSize,
	}
	spec, err := puma.Spec(puma.WordCount, "input", n/4)
	return sc, spec, err
}

// fleet-10k: one job on 10,000 nodes, flat network, no faults.
func runFleet(engine string, seed int64, p *probe) (outcome, error) {
	sc, spec, err := singleJob(fleetNodes, fleetBUs, nil, seed)
	if err != nil {
		return outcome{}, err
	}
	return runSingle(sc, spec, engine, p)
}

// rack-2000's fabric: racks of 20 hosts behind a 4:1-oversubscribed core,
// with one crash per node-hour.
func runRack(engine string, seed int64, p *probe) (outcome, error) {
	sc, spec, err := singleJob(rackNodes, rackBUs, &cluster.TopologySpec{HostsPerRack: 20, Oversub: 4}, seed)
	if err != nil {
		return outcome{}, err
	}
	sc.Faults = faults.Plan{CrashRate: 1}
	sc.Trace = trace.Options{Collect: true}
	return runSingle(sc, spec, engine, p)
}

// runSingle runs one job and checks that every input BU committed exactly
// once. The digest covers the job result; when the scenario collects a
// trace, it covers the trace's JSONL encoding instead.
func runSingle(sc runner.Scenario, spec mr.JobSpec, engine string, p *probe) (outcome, error) {
	sc.OnFire = p.fire
	p.begin()
	res, err := runner.Run(sc, spec, runner.Engine{Kind: runner.EngineKind(engine)})
	if err != nil {
		return outcome{}, err
	}
	var digest string
	if res.Trace != nil {
		start := time.Now()
		h := sha256.New()
		if err := trace.WriteJSONL(h, res.Trace.Events()); err != nil {
			return outcome{}, err
		}
		p.add("trace.encode_ms", 1e3*time.Since(start).Seconds())
		p.add("trace.events", float64(len(res.Trace.Events())))
		digest = hex.EncodeToString(h.Sum(nil))
	}
	p.end()
	if err := exactlyOnce(res.BUCommits, sc.InputSize); err != nil {
		return outcome{}, err
	}
	if digest == "" {
		if digest, err = jsonDigest(res.JobResult); err != nil {
			return outcome{}, err
		}
	}
	return outcome{digest: digest, events: res.SimEvents}, nil
}

// multijob-200: 40 WordCount jobs of 64–192 MB arrive at 24/s on 200
// nodes under the fair inter-job policy. How long a job mix takes depends
// on its arrivals and placement, so a round runs multiMixes mixes, each
// under both engines and with its own seed derived from the run's.
const (
	multiNodes = 200
	multiJobs  = 40
	multiMin   = 8 * dfs.BUSize
	multiMax   = 24 * dfs.BUSize
	multiMixes = 4
)

var multiPattern = workload.Pattern{Jobs: multiJobs, Rate: 24}

// multiSims names each mix under each engine: hadoop/0, flexmap/0, ….
var multiSims = func() []string {
	var sims []string
	for mix := 0; mix < multiMixes; mix++ {
		for _, e := range engines {
			sims = append(sims, fmt.Sprintf("%s/%d", e, mix))
		}
	}
	return sims
}()

func runMultijob(sim string, seed int64, p *probe) (outcome, error) {
	engine, mix, _ := strings.Cut(sim, "/")
	m, err := strconv.Atoi(mix)
	if err != nil {
		return outcome{}, fmt.Errorf("simulation %q names no job mix", sim)
	}
	seed = randutil.DeriveSeed(seed, m)
	spec, err := puma.Spec(puma.WordCount, "input", 4)
	if err != nil {
		return outcome{}, err
	}
	factory := benchCluster(multiNodes, nil)
	sc := runner.WorkloadScenario{
		Name: "multijob-200",
		// RunWorkload takes no fire observer; the engine reaches the
		// cluster's interferer, which installs one.
		Cluster: func() (*cluster.Cluster, cluster.Interferer) {
			c, _ := factory()
			return c, observer{p}
		},
		Seed:    seed,
		Pattern: multiPattern,
		Classes: []runner.WorkloadClass{{
			Name: "bench", Weight: 1, MinBytes: multiMin, MaxBytes: multiMax,
			Engine: runner.Engine{Kind: runner.EngineKind(engine)}, Spec: spec,
		}},
		Policy: "fair",
	}
	p.begin()
	res, err := runner.RunWorkload(sc)
	p.end()
	if err != nil {
		return outcome{}, err
	}
	if res.Completed != multiJobs || res.Failed != 0 {
		return outcome{}, fmt.Errorf("%d of %d jobs completed, %d failed", res.Completed, multiJobs, res.Failed)
	}
	for _, j := range res.Jobs {
		if err := exactlyOnce(j.BUCommits, j.InputBytes); err != nil {
			return outcome{}, fmt.Errorf("job %s: %w", j.ID, err)
		}
	}
	digest, err := jsonDigest(res.Jobs)
	return outcome{digest: digest, events: res.SimEvents}, err
}

// observer is a no-op interferer whose only job is to attach the probe's
// fire observer to the workload's engine.
type observer struct{ p *probe }

func (o observer) Start(eng *sim.Engine) { eng.SetFireObserver(o.p.fire) }
func (o observer) Stop()                 {}

// placementStore is the empty DFS a simulation with this seed starts from.
func placementStore(c *cluster.Cluster, seed int64) *dfs.Store {
	return dfs.NewStore(c, 0, randutil.New(seed).Split("placement"))
}

func placeSingle(n, bus int) func(seed int64) error {
	return func(seed int64) error {
		c, _ := benchCluster(n, nil)()
		_, err := placementStore(c, seed).AddFile("input", int64(n*bus)*dfs.BUSize)
		return err
	}
}

// placeMultijob stores every input of the first job mix, which the
// workload does as each job arrives.
func placeMultijob(seed int64) error {
	seed = randutil.DeriveSeed(seed, 0)
	arrivals, err := workload.Generate(seed, multiPattern, []workload.Class{{Weight: 1, MinBytes: multiMin, MaxBytes: multiMax}})
	if err != nil {
		return err
	}
	c, _ := benchCluster(multiNodes, nil)()
	store := placementStore(c, seed)
	for _, a := range arrivals {
		if _, err := store.AddFile(fmt.Sprintf("j%04d/input", a.Index), a.InputBytes); err != nil {
			return err
		}
	}
	return nil
}

// placePaper stores each benchmark's Table II small and large inputs,
// divided by paperScale, on both paper testbeds: the placements the paper
// sequence repeats.
func placePaper(seed int64) error {
	virtual, _ := cluster.Virtual20(seed)
	for _, c := range []*cluster.Cluster{cluster.Physical12(), virtual} {
		store := placementStore(c, seed)
		for _, b := range puma.All {
			prof, err := puma.GetProfile(b)
			if err != nil {
				return err
			}
			for _, gb := range []int{prof.SmallGB, prof.LargeGB} {
				if _, err := store.AddFile(fmt.Sprintf("%s/%d", b, gb), int64(gb)*runner.GB/paperScale); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// exactlyOnce checks that a successful job committed each of its input
// BUs exactly once.
func exactlyOnce(commits map[dfs.BUID]int, inputBytes int64) error {
	want := int((inputBytes + dfs.BUSize - 1) / dfs.BUSize)
	if len(commits) != want {
		return fmt.Errorf("%d BUs committed, want %d", len(commits), want)
	}
	for id, n := range commits {
		if n != 1 {
			return fmt.Errorf("BU %d committed %d times", id, n)
		}
	}
	return nil
}

func jsonDigest(v any) (string, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}
