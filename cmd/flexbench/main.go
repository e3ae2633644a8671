// Command flexbench is the repository's performance regression harness.
//
// It runs a fixed, fully seeded scenario grid — cluster sizes × {stock
// Hadoop, FlexMap} × {faults on, off} × {tracing on, off} — through the
// production runner, measuring wall time, fired events per second, and
// heap allocations per event via runtime.ReadMemStats deltas around each
// run. A micro section benchmarks the sim/dfs/core hot paths in-process
// with testing.Benchmark. Results go to a schema-stable BENCH_<n>.json
// (auto-numbered in the output directory) so successive runs can be
// diffed and CI can gate on allocation regressions.
//
// Usage:
//
//	flexbench [-out dir] [-sizes 10,50,200] [-bus-per-node 24] [-seed 42]
//	          [-micro-time 100ms] [-check BENCH_old.json|latest] [-check-threshold 1.25]
//	          [-max-allocs-per-event N] [-xl-sizes 2000,10000]
//	          [-xl-bus-per-node 8] [-xl-budget 2m] [-min-xl-events-per-sec N]
//	          [-net-sizes 200,2000]
//
// Beyond the classic grid, an XL section runs single-job cells at
// cluster scale (default n=2000 and n=10000), named xl/n<N>/<engine>.
// XL cells carry a wall-clock budget and an optional events/sec floor
// that pins in CI that a 10k-node cluster stays simulable. A net section
// repeats the single-job cell with the cluster organized into racks
// behind a 4:1-oversubscribed core, so the max-min fair network fabric
// (remote map fetches plus the reduce shuffle) is on the measured path;
// net cells, named net/n<N>/<engine>, are covered by the same budget and
// events/sec floor as XL cells.
// -check accepts the literal "latest", which
// resolves to the highest-numbered BENCH_<n>.json already in -out —
// resolved before the new report is written, so the gate always compares
// against the most recent committed baseline instead of a stale pin.
//
// The simulation outputs themselves are deterministic; only wall-clock
// derived fields vary between machines. Allocation counts are stable for
// a given binary, which is what -check and -max-allocs-per-event gate on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"flexmap/internal/cluster"
	"flexmap/internal/core"
	"flexmap/internal/dfs"
	"flexmap/internal/engine"
	"flexmap/internal/faults"
	"flexmap/internal/mr"
	"flexmap/internal/puma"
	"flexmap/internal/randutil"
	"flexmap/internal/runner"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
	"flexmap/internal/workload"
	"flexmap/internal/yarn"
)

// Report is the schema-stable top-level JSON document. CI and diff
// tooling key on run/bench names. Fields are only ever added, except
// GridRun's former "shards" field: older BENCH_<n>.json files that carry
// it still decode, because encoding/json ignores unknown fields.
type Report struct {
	Schema    string     `json:"schema"`
	CreatedAt string     `json:"created_at"`
	GoVersion string     `json:"go_version"`
	NumCPU    int        `json:"num_cpu"`
	Seed      int64      `json:"seed"`
	Grid      []GridRun  `json:"grid"`
	Micro     []MicroRun `json:"micro"`
}

// GridRun is one cell of the scenario grid. The workload fields are set
// only on multi-job cells (omitted from single-job cells' JSON), so the
// schema grows without disturbing existing diff tooling.
type GridRun struct {
	Name        string  `json:"name"`
	Nodes       int     `json:"nodes"`
	Engine      string  `json:"engine"`
	Faults      bool    `json:"faults"`
	Trace       bool    `json:"trace"`
	SimTimeS    float64 `json:"sim_time_s"`
	SimEvents   uint64  `json:"sim_events"`
	WallMS      float64 `json:"wall_ms"`
	EventsPerS  float64 `json:"events_per_sec"`
	Allocs      uint64  `json:"allocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	AllocsPerEv float64 `json:"allocs_per_event"`
	BytesPerEv  float64 `json:"bytes_per_event"`

	// Workload cells: sustained concurrent-job load through one RM.
	Jobs              int `json:"jobs,omitempty"`
	JobsCompleted     int `json:"jobs_completed,omitempty"`
	MaxConcurrentJobs int `json:"max_concurrent_jobs,omitempty"`
}

// MicroRun is one in-process microbenchmark result.
type MicroRun struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

func main() {
	out := flag.String("out", ".", "directory for BENCH_<n>.json")
	sizes := flag.String("sizes", "10,50,200", "comma-separated cluster sizes")
	busPerNode := flag.Int("bus-per-node", 24, "input scale: 8 MB block units per node")
	seed := flag.Int64("seed", 42, "scenario seed (placement, noise, faults)")
	microTime := flag.Duration("micro-time", 100*time.Millisecond, "benchtime per microbenchmark")
	check := flag.String("check", "", "baseline BENCH_<n>.json to gate against, or \"latest\" for the newest in -out")
	threshold := flag.Float64("check-threshold", 1.25, "max allowed allocs/event (and allocs/op) ratio vs -check baseline")
	maxAllocs := flag.Float64("max-allocs-per-event", 0, "absolute allocs/event ceiling over the grid (0 = no gate)")
	xlSizes := flag.String("xl-sizes", "2000,10000", "comma-separated XL cluster sizes (empty = skip)")
	xlBusPerNode := flag.Int("xl-bus-per-node", 8, "input scale for XL cells: 8 MB block units per node")
	xlBudget := flag.Duration("xl-budget", 2*time.Minute, "wall-clock budget per XL cell (0 = no budget)")
	minXLEvents := flag.Float64("min-xl-events-per-sec", 0, "events/sec floor over XL and net cells (0 = no gate)")
	netSizes := flag.String("net-sizes", "200,2000", "comma-separated cluster sizes run with the rack topology fabric enabled (empty = skip)")
	flag.Parse()

	nodeCounts, err := parseSizes(*sizes)
	if err != nil {
		fatal(err)
	}

	rep := &Report{
		Schema:    "flexbench/1",
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Seed:      *seed,
	}

	for _, n := range nodeCounts {
		for _, eng := range []runner.EngineKind{runner.Hadoop, runner.FlexMap} {
			for _, withFaults := range []bool{false, true} {
				for _, withTrace := range []bool{false, true} {
					run, err := runCell(gridCellName(n, eng, withFaults, withTrace), n, eng, withFaults, withTrace, *busPerNode, *seed)
					if err != nil {
						fatal(fmt.Errorf("%s: %w", run.Name, err))
					}
					fmt.Printf("%-40s %10.1f ev/ms  %6.1f allocs/ev  %8.0f B/ev  %8.0fms wall\n",
						run.Name, run.EventsPerS/1e3, run.AllocsPerEv, run.BytesPerEv, run.WallMS)
					rep.Grid = append(rep.Grid, run)
				}
			}
		}
	}

	// Workload cells run once, at the largest grid size: 120 jobs
	// arriving fast enough that >100 run concurrently through one RM.
	// The ≥100-concurrency floor is asserted (and meaningful) only at
	// 200 nodes and up; smaller -sizes runs report whatever they reach.
	maxNodes := nodeCounts[0]
	for _, n := range nodeCounts {
		if n > maxNodes {
			maxNodes = n
		}
	}
	// The stock side runs with speculation on, as production Hadoop does.
	// The speculation-candidate set is maintained incrementally (see
	// engine.AttemptBook) — the old rebuild-per-probe scan was
	// quadratic under ~100 concurrent jobs, which is why this cell once
	// had to run the no-spec ablation.
	for _, eng := range []runner.EngineKind{runner.Hadoop, runner.FlexMap} {
		run, err := runWorkloadCell(maxNodes, eng, *seed)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", run.Name, err))
		}
		fmt.Printf("%-40s %10.1f ev/ms  %6.1f allocs/ev  %8.0f B/ev  %8.0fms wall  (%d jobs, peak %d concurrent)\n",
			run.Name, run.EventsPerS/1e3, run.AllocsPerEv, run.BytesPerEv, run.WallMS,
			run.JobsCompleted, run.MaxConcurrentJobs)
		rep.Grid = append(rep.Grid, run)
	}

	// XL cells: the largest clusters, single job. Faults and tracing stay
	// off and a lighter per-node input (xl-bus-per-node) is used, so the
	// cell isolates steady-state event throughput at fleet scale rather
	// than DFS placement.
	xlCounts, err := parseSizes(*xlSizes)
	if *xlSizes == "" {
		xlCounts, err = nil, nil
	}
	if err != nil {
		fatal(err)
	}
	for _, n := range xlCounts {
		for _, eng := range []runner.EngineKind{runner.Hadoop, runner.FlexMap} {
			run, err := runCell(xlCellName(n, eng), n, eng, false, false, *xlBusPerNode, *seed)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", run.Name, err))
			}
			fmt.Printf("%-40s %10.1f ev/ms  %6.1f allocs/ev  %8.0f B/ev  %8.0fms wall\n",
				run.Name, run.EventsPerS/1e3, run.AllocsPerEv, run.BytesPerEv, run.WallMS)
			if *xlBudget > 0 && run.WallMS > float64(*xlBudget)/float64(time.Millisecond) {
				fatal(fmt.Errorf("gate: %s took %.0fms, budget %s", run.Name, run.WallMS, *xlBudget))
			}
			rep.Grid = append(rep.Grid, run)
		}
	}

	// Net cells: the same single-job measurement with the network fabric
	// on the hot path — racks of 20 hosts behind a 4:1-oversubscribed
	// core, so every remote map fetch and shuffle copy goes through the
	// max-min fair bandwidth allocator. The XL events/sec floor and wall
	// budget also pin fabric overhead in CI.
	netCounts, err := parseSizes(*netSizes)
	if *netSizes == "" {
		netCounts, err = nil, nil
	}
	if err != nil {
		fatal(err)
	}
	for _, n := range netCounts {
		for _, eng := range []runner.EngineKind{runner.Hadoop, runner.FlexMap} {
			run, err := runNetCell(n, eng, *xlBusPerNode, *seed)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", run.Name, err))
			}
			fmt.Printf("%-40s %10.1f ev/ms  %6.1f allocs/ev  %8.0f B/ev  %8.0fms wall\n",
				run.Name, run.EventsPerS/1e3, run.AllocsPerEv, run.BytesPerEv, run.WallMS)
			if *xlBudget > 0 && run.WallMS > float64(*xlBudget)/float64(time.Millisecond) {
				fatal(fmt.Errorf("gate: %s took %.0fms, budget %s", run.Name, run.WallMS, *xlBudget))
			}
			rep.Grid = append(rep.Grid, run)
		}
	}

	rep.Micro = runMicro(*microTime)
	for _, m := range rep.Micro {
		fmt.Printf("%-40s %10.1f ns/op  %6.1f allocs/op  %8.1f B/op\n",
			m.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
	}

	// Resolve "latest" before the new report lands, so the gate compares
	// against the newest committed baseline, not the file just written.
	if *check == "latest" {
		latest, err := latestBenchPath(*out)
		if err != nil {
			fatal(err)
		}
		*check = latest
	}

	path, err := nextBenchPath(*out)
	if err != nil {
		fatal(err)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)

	if *maxAllocs > 0 {
		for _, g := range rep.Grid {
			// The absolute ceiling gates the single-job hot path. Workload
			// cells (Jobs > 0) amortize ~100 concurrent jobs' setup and
			// bookkeeping over far fewer events and sit an order of
			// magnitude higher by construction; the -check ratio gate
			// still tracks them against a baseline by name.
			if g.Jobs > 0 {
				continue
			}
			if g.AllocsPerEv > *maxAllocs {
				fatal(fmt.Errorf("gate: %s allocates %.1f/event, ceiling %.1f", g.Name, g.AllocsPerEv, *maxAllocs))
			}
		}
		fmt.Printf("gate: all grid cells within %.1f allocs/event\n", *maxAllocs)
	}
	if *check != "" {
		if err := gateAgainst(*check, rep, *threshold); err != nil {
			fatal(err)
		}
		fmt.Printf("gate: within %.2fx of %s\n", *threshold, *check)
	}
	if *minXLEvents > 0 {
		if err := gateEventsFloor(rep.Grid, *minXLEvents); err != nil {
			fatal(err)
		}
		fmt.Printf("gate: all XL and net cells above %.0f events/sec\n", *minXLEvents)
	}
}

// Cell-name prefixes of the fleet-scale sections. The events/sec floor
// covers exactly the cells whose names carry one of them.
const (
	xlPrefix  = "xl/"
	netPrefix = "net/"
)

func gridCellName(n int, kind runner.EngineKind, withFaults, withTrace bool) string {
	return fmt.Sprintf("n%d/%s/faults=%s/trace=%s", n, kind, onOff(withFaults), onOff(withTrace))
}

func xlCellName(n int, kind runner.EngineKind) string {
	return fmt.Sprintf("%sn%d/%s", xlPrefix, n, kind)
}

func netCellName(n int, kind runner.EngineKind) string {
	return fmt.Sprintf("%sn%d/%s", netPrefix, n, kind)
}

// gateEventsFloor fails on the first XL or net cell that ran below floor
// events/sec. Grid and workload cells are not gated.
func gateEventsFloor(grid []GridRun, floor float64) error {
	for _, g := range grid {
		if !strings.HasPrefix(g.Name, xlPrefix) && !strings.HasPrefix(g.Name, netPrefix) {
			continue
		}
		if g.EventsPerS < floor {
			return fmt.Errorf("gate: %s ran at %.0f events/sec, floor %.0f", g.Name, g.EventsPerS, floor)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flexbench:", err)
	os.Exit(1)
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -sizes entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// benchSpeeds cycles the paper testbed's four machine generations.
var benchSpeeds = []float64{1.0, 1.5, 2.4, 2.8}

func benchCluster(n int) runner.ClusterFactory {
	return func() (*cluster.Cluster, cluster.Interferer) {
		specs := make([]cluster.NodeSpec, n)
		for i := range specs {
			specs[i] = cluster.NodeSpec{
				Name:      fmt.Sprintf("bench-%03d", i),
				BaseSpeed: benchSpeeds[i%len(benchSpeeds)],
				Slots:     2,
			}
		}
		return cluster.NewCluster(fmt.Sprintf("bench-%d", n), specs), nil
	}
}

func runCell(name string, n int, kind runner.EngineKind, withFaults, withTrace bool, busPerNode int, seed int64) (GridRun, error) {
	run := GridRun{
		Name:   name,
		Nodes:  n,
		Engine: string(kind),
		Faults: withFaults,
		Trace:  withTrace,
	}
	sc := runner.Scenario{
		Name:      run.Name,
		Cluster:   benchCluster(n),
		Seed:      seed,
		InputSize: int64(n) * int64(busPerNode) * dfs.BUSize,
	}
	if withFaults {
		sc.Faults = faults.Plan{CrashRate: 1}
	}
	if withTrace {
		sc.Trace = trace.Options{Collect: true}
	}
	reducers := n / 4
	if reducers < 4 {
		reducers = 4
	}
	spec, err := puma.Spec(puma.WordCount, "input", reducers)
	if err != nil {
		return run, err
	}
	return measureCell(run, sc, spec, kind)
}

// measureCell executes one single-job scenario inside the GC'd
// ReadMemStats sandwich and fills run's timing and allocation fields.
func measureCell(run GridRun, sc runner.Scenario, spec mr.JobSpec, kind runner.EngineKind) (GridRun, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := runner.Run(sc, spec, runner.Engine{Kind: kind})
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return run, err
	}

	run.SimTimeS = float64(res.Finished - res.Submitted)
	run.SimEvents = res.SimEvents
	run.WallMS = float64(wall) / float64(time.Millisecond)
	run.Allocs = after.Mallocs - before.Mallocs
	run.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if wall > 0 {
		run.EventsPerS = float64(res.SimEvents) / wall.Seconds()
	}
	if res.SimEvents > 0 {
		run.AllocsPerEv = float64(run.Allocs) / float64(res.SimEvents)
		run.BytesPerEv = float64(run.AllocBytes) / float64(res.SimEvents)
	}
	return run, nil
}

// benchWorkloadJobs is the workload cells' arrival count; arrivals come
// fast (benchWorkloadRate/s) so nearly all of them overlap, exercising
// the inter-job scheduler at sustained concurrent load. At 24/s the
// whole batch lands inside a ~5s window — short enough that even
// FlexMap's fast elastic drain on 200 nodes keeps 100+ jobs in flight.
const (
	benchWorkloadJobs = 120
	benchWorkloadRate = 24
)

func runWorkloadCell(n int, kind runner.EngineKind, seed int64) (GridRun, error) {
	run := GridRun{
		Name:   fmt.Sprintf("workload/n%d/%s/fair", n, kind),
		Nodes:  n,
		Engine: string(kind),
		Jobs:   benchWorkloadJobs,
	}
	spec, err := puma.Spec(puma.WordCount, "input", 4)
	if err != nil {
		return run, err
	}
	sc := runner.WorkloadScenario{
		Name:    run.Name,
		Cluster: benchCluster(n),
		Seed:    seed,
		Pattern: workload.Pattern{Jobs: benchWorkloadJobs, Rate: benchWorkloadRate},
		Classes: []runner.WorkloadClass{{
			Name: "bench", Weight: 1,
			MinBytes: 8 * dfs.BUSize, MaxBytes: 24 * dfs.BUSize,
			Engine: runner.Engine{Kind: kind}, Spec: spec,
		}},
		Policy: "fair",
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := runner.RunWorkload(sc)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return run, err
	}
	if n >= 200 && res.MaxConcurrent < 100 {
		return run, fmt.Errorf("sustained-load floor: peak %d concurrent jobs, want >= 100", res.MaxConcurrent)
	}

	run.SimTimeS = float64(res.Span)
	run.SimEvents = res.SimEvents
	run.WallMS = float64(wall) / float64(time.Millisecond)
	run.Allocs = after.Mallocs - before.Mallocs
	run.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if wall > 0 {
		run.EventsPerS = float64(res.SimEvents) / wall.Seconds()
	}
	if res.SimEvents > 0 {
		run.AllocsPerEv = float64(run.Allocs) / float64(res.SimEvents)
		run.BytesPerEv = float64(run.AllocBytes) / float64(res.SimEvents)
	}
	run.JobsCompleted = res.Completed
	run.MaxConcurrentJobs = res.MaxConcurrent
	return run, nil
}

// Net cells' rack shape: 20 hosts per rack behind a 4:1-oversubscribed
// core — the midpoint of the netplace experiment's fabric sweep, and
// enough contention that the max-min allocator recomputes on every flow
// arrival and departure rather than degenerating to host-link caps.
const (
	netBenchHostsPerRack = 20
	netBenchOversub      = 4
)

// runNetCell is one topology-enabled cell: the XL single-job scenario on
// the same heterogeneous cluster, but organized into racks so remote map
// fetches and the reduce shuffle route through the fair-sharing fabric.
func runNetCell(n int, kind runner.EngineKind, busPerNode int, seed int64) (GridRun, error) {
	run := GridRun{
		Name:   netCellName(n, kind),
		Nodes:  n,
		Engine: string(kind),
	}
	sc := runner.Scenario{
		Name: run.Name,
		Cluster: func() (*cluster.Cluster, cluster.Interferer) {
			c, inf := benchCluster(n)()
			c.Topology = &cluster.TopologySpec{HostsPerRack: netBenchHostsPerRack, Oversub: netBenchOversub}
			return c, inf
		},
		Seed:      seed,
		InputSize: int64(n) * int64(busPerNode) * dfs.BUSize,
	}
	reducers := n / 4
	if reducers < 4 {
		reducers = 4
	}
	spec, err := puma.Spec(puma.WordCount, "input", reducers)
	if err != nil {
		return run, err
	}
	return measureCell(run, sc, spec, kind)
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// runMicro benchmarks the three optimized hot paths in-process. These are
// smaller cousins of the go-test benchmarks in internal/{sim,dfs,core};
// they live here so one flexbench invocation yields the whole picture.
func runMicro(benchtime time.Duration) []MicroRun {
	record := func(name string, fn func(b *testing.B)) MicroRun {
		prev := flag.Lookup("test.benchtime")
		if prev != nil {
			_ = prev.Value.Set(benchtime.String())
		}
		r := testing.Benchmark(fn)
		return MicroRun{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
		}
	}
	return []MicroRun{
		record("sim/schedule-fire", benchSimScheduleFire),
		record("dfs/tracker-take", benchTrackerTake),
		record("core/relative-speeds", benchRelativeSpeeds),
	}
}

// benchSimScheduleFire keeps a 1024-event window live and measures one
// schedule + fire cycle — the engine's steady state.
func benchSimScheduleFire(b *testing.B) {
	eng := sim.New()
	lcg := uint64(1)
	next := func() sim.Duration {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return sim.Duration(1 + lcg%1024)
	}
	for i := 0; i < 1024; i++ {
		eng.After(next(), "warm", func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(next(), "bench", func() {})
		eng.Step()
	}
}

// benchTrackerTake measures late-task-binding handout over a populated
// tracker, rebuilding it when the pool drains.
func benchTrackerTake(b *testing.B) {
	const nodes, bus = 50, 4096
	build := func() *dfs.Tracker {
		store := dfs.NewStore(cluster.Homogeneous(nodes), 3, randutil.New(1))
		if _, err := store.AddFile("input", bus*dfs.BUSize); err != nil {
			b.Fatal(err)
		}
		tr, err := dfs.NewTracker(store, "input")
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	tr := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.Remaining() < 16 {
			b.StopTimer()
			tr = build()
			b.StartTimer()
		}
		if got, _ := tr.Take(cluster.NodeID(i%nodes), 12); len(got) == 0 {
			b.Fatal("Take returned nothing")
		}
	}
}

// benchRelativeSpeeds measures the 200-node speed-map recompute through
// the exported monitor API. Resetting one node's window each iteration
// bumps the monitor's epoch, so every call recomputes instead of hitting
// the memo (windows empty: every node reports 1.0, the buffer-reuse and
// map-fill cost is identical either way).
func benchRelativeSpeeds(b *testing.B) {
	eng := sim.New()
	specs := make([]cluster.NodeSpec, 200)
	for i := range specs {
		specs[i] = cluster.NodeSpec{BaseSpeed: benchSpeeds[i%len(benchSpeeds)], Slots: 2}
	}
	c := cluster.NewCluster("bench", specs)
	store := dfs.NewStore(c, 3, randutil.New(1))
	if _, err := store.AddFile("input", 64*dfs.BUSize); err != nil {
		b.Fatal(err)
	}
	spec, err := puma.Spec(puma.WordCount, "input", 4)
	if err != nil {
		b.Fatal(err)
	}
	d, err := engine.NewDriver(eng, c, store, yarn.NewRM(eng, c), engine.DefaultCostModel(), spec)
	if err != nil {
		b.Fatal(err)
	}
	m := core.NewSpeedMonitor(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ResetNode(cluster.NodeID(i % len(specs)))
		if rel := m.RelativeSpeeds(); len(rel) != 200 {
			b.Fatal("short map")
		}
	}
}

// maxBenchIndex returns the largest n among BENCH_<n>.json files in dir,
// or 0 when none exist.
func maxBenchIndex(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	max := 0
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "BENCH_") || !strings.HasSuffix(name, ".json") {
			continue
		}
		if n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_"), ".json")); err == nil && n > max {
			max = n
		}
	}
	return max, nil
}

// nextBenchPath returns BENCH_<n>.json with n one past the largest
// existing index in dir.
func nextBenchPath(dir string) (string, error) {
	max, err := maxBenchIndex(dir)
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", max+1)), nil
}

// latestBenchPath resolves -check latest: the highest-numbered existing
// BENCH_<n>.json in dir.
func latestBenchPath(dir string) (string, error) {
	max, err := maxBenchIndex(dir)
	if err != nil {
		return "", err
	}
	if max == 0 {
		return "", fmt.Errorf("-check latest: no BENCH_<n>.json in %s", dir)
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", max)), nil
}

// gateAgainst fails when any grid cell's allocs/event (or micro bench's
// allocs/op) exceeds threshold × the baseline's figure for the same name.
// Cells missing from the baseline are informational only.
func gateAgainst(path string, rep *Report, threshold float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	baseGrid := make(map[string]float64, len(base.Grid))
	for _, g := range base.Grid {
		baseGrid[g.Name] = g.AllocsPerEv
	}
	baseMicro := make(map[string]float64, len(base.Micro))
	for _, m := range base.Micro {
		baseMicro[m.Name] = m.AllocsPerOp
	}
	var violations []string
	for _, g := range rep.Grid {
		if old, ok := baseGrid[g.Name]; ok && old > 0 && g.AllocsPerEv > old*threshold {
			violations = append(violations, fmt.Sprintf("%s: %.1f allocs/event vs baseline %.1f", g.Name, g.AllocsPerEv, old))
		}
	}
	for _, m := range rep.Micro {
		// Allow a small absolute slack for near-zero baselines, where a
		// single extra allocation would otherwise be an infinite ratio.
		if old, ok := baseMicro[m.Name]; ok && m.AllocsPerOp > old*threshold+1 {
			violations = append(violations, fmt.Sprintf("%s: %.1f allocs/op vs baseline %.1f", m.Name, m.AllocsPerOp, old))
		}
	}
	if len(violations) > 0 {
		sort.Strings(violations)
		return fmt.Errorf("allocation regression beyond %.2fx:\n  %s", threshold, strings.Join(violations, "\n  "))
	}
	return nil
}
