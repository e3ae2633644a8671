package runner

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/datagen"
	"flexmap/internal/dfs"
	"flexmap/internal/elastic"
	"flexmap/internal/faults"
	"flexmap/internal/mr"
	"flexmap/internal/puma"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
)

func homoFactory(n int) ClusterFactory {
	return func() (*cluster.Cluster, cluster.Interferer) {
		return cluster.HomogeneousPaper(n), nil
	}
}

func hetFactory() (*cluster.Cluster, cluster.Interferer) {
	return cluster.Heterogeneous6(), nil
}

func smallScenario(factory ClusterFactory) Scenario {
	return Scenario{
		Name:      "test",
		Cluster:   factory,
		Seed:      3,
		InputSize: 64 * dfs.BUSize,
	}
}

func wcSpec(t *testing.T, reducers int) mr.JobSpec {
	t.Helper()
	s, err := puma.Spec(puma.WordCount, "input", reducers)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAllEnginesFinish(t *testing.T) {
	engines := []Engine{
		{Kind: Hadoop, SplitMB: 64},
		{Kind: Hadoop, SplitMB: 128},
		{Kind: HadoopNoSpec, SplitMB: 64},
		{Kind: SkewTune, SplitMB: 64},
		{Kind: FlexMap},
	}
	for _, eng := range engines {
		res, err := Run(smallScenario(hetFactory), wcSpec(t, 4), eng)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if res.JCT() <= 0 {
			t.Fatalf("%s: non-positive JCT", eng)
		}
		// BU exactly-once invariant holds for every engine.
		total := 0
		for _, a := range res.MapAttempts() {
			total += a.BUs
		}
		if total != 64 {
			t.Fatalf("%s: successful attempts cover %d BUs, want 64", eng, total)
		}
	}
}

func TestRunErrors(t *testing.T) {
	spec := wcSpec(t, 2)
	with := func(mut func(*Scenario)) Scenario {
		sc := smallScenario(hetFactory)
		mut(&sc)
		return sc
	}
	withNet := func(mut func(*cluster.Cluster)) Scenario {
		return with(func(sc *Scenario) {
			sc.Cluster = func() (*cluster.Cluster, cluster.Interferer) {
				c, _ := hetFactory()
				mut(c)
				return c, nil
			}
		})
	}
	nan, inf := math.NaN(), math.Inf(1)
	crashes := func(p faults.Plan) Scenario {
		p.CrashRate = 1
		return with(func(sc *Scenario) { sc.Faults = p })
	}
	cases := []struct {
		name string
		sc   Scenario
		eng  Engine
	}{
		{"no cluster", Scenario{InputSize: 1}, Engine{Kind: Hadoop}},
		{"no input", Scenario{Cluster: hetFactory}, Engine{Kind: Hadoop}},
		{"bad split", smallScenario(hetFactory), Engine{Kind: Hadoop, SplitMB: 12}},
		{"unknown engine", smallScenario(hetFactory), Engine{Kind: "mystery"}},
		{"zero nodes", smallScenario(homoFactory(0)), Engine{Kind: Hadoop}},
		{"negative crash rate", with(func(sc *Scenario) { sc.Faults = faults.Plan{CrashRate: -1} }), Engine{Kind: Hadoop}},
		{"negative skew", with(func(sc *Scenario) { sc.SkewSigma = -1 }), Engine{Kind: Hadoop}},
		{"NaN skew", with(func(sc *Scenario) { sc.SkewSigma = nan }), Engine{Kind: Hadoop}},
		{"+Inf skew", with(func(sc *Scenario) { sc.SkewSigma = inf }), Engine{Kind: Hadoop}},
		{"NaN NetBW", withNet(func(c *cluster.Cluster) { c.NetBW = nan }), Engine{Kind: Hadoop}},
		{"+Inf NetBW", withNet(func(c *cluster.Cluster) { c.NetBW = inf }), Engine{Kind: Hadoop}},
		{"NaN oversub", withNet(func(c *cluster.Cluster) {
			c.Topology = &cluster.TopologySpec{HostsPerRack: 4, Oversub: nan}
		}), Engine{Kind: Hadoop}},
		{"-Inf host bandwidth", withNet(func(c *cluster.Cluster) {
			c.Topology = &cluster.TopologySpec{HostsPerRack: 4, HostBW: -inf}
		}), Engine{Kind: Hadoop}},
		{"NaN downtime", crashes(faults.Plan{MeanDowntime: sim.Duration(nan)}), Engine{Kind: Hadoop}},
		{"+Inf downtime", crashes(faults.Plan{MeanDowntime: sim.Duration(inf)}), Engine{Kind: Hadoop}},
		{"negative downtime", crashes(faults.Plan{MeanDowntime: -5}), Engine{Kind: Hadoop}},
		{"NaN slowdown", crashes(faults.Plan{MeanSlowdown: sim.Duration(nan)}), Engine{Kind: Hadoop}},
		{"NaN slow factor", crashes(faults.Plan{MinSlowFactor: nan}), Engine{Kind: Hadoop}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.sc, spec, tc.eng); err == nil {
			t.Errorf("%s: Run succeeded, want error", tc.name)
		}
	}
	// Invalid job spec.
	bad := spec
	bad.MapCost = 0
	if _, err := Run(smallScenario(hetFactory), bad, Engine{Kind: Hadoop}); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestBadMembershipPlanRejected: a membership plan with a negative,
// NaN or infinite spare speed or churn rate, negative slots, or a spot
// fraction outside [0, 1] is a scenario error from both Run and
// RunWorkload — not a panic in AddSpares, and not a silently static
// fleet.
func TestBadMembershipPlanRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	plan := func(mut func(*elastic.Plan)) elastic.Plan {
		p := elastic.Plan{Spares: 2, JoinsPerHour: 1, LeavesPerHour: 1, SpotFraction: 0.5}
		mut(&p)
		return p
	}
	cases := []struct {
		name string
		plan elastic.Plan
	}{
		{"negative speed", plan(func(p *elastic.Plan) { p.SpareSpec.BaseSpeed = -1 })},
		{"NaN speed", plan(func(p *elastic.Plan) { p.SpareSpec.BaseSpeed = nan })},
		{"+Inf speed", plan(func(p *elastic.Plan) { p.SpareSpec.BaseSpeed = inf })},
		{"-Inf speed", plan(func(p *elastic.Plan) { p.SpareSpec.BaseSpeed = -inf })},
		{"negative slots", plan(func(p *elastic.Plan) { p.SpareSpec.Slots = -1 })},
		{"negative joins", plan(func(p *elastic.Plan) { p.JoinsPerHour = -1 })},
		{"NaN joins", plan(func(p *elastic.Plan) { p.JoinsPerHour = nan })},
		{"+Inf joins", plan(func(p *elastic.Plan) { p.JoinsPerHour = inf })},
		{"NaN leaves", plan(func(p *elastic.Plan) { p.LeavesPerHour = nan })},
		{"+Inf leaves", plan(func(p *elastic.Plan) { p.LeavesPerHour = inf })},
		{"NaN spot fraction", plan(func(p *elastic.Plan) { p.SpotFraction = nan })},
		{"spot fraction above 1", plan(func(p *elastic.Plan) { p.SpotFraction = 1.5 })},
		{"negative spot fraction", plan(func(p *elastic.Plan) { p.SpotFraction = -0.1 })},
	}
	spec := wcSpec(t, 2)
	for _, tc := range cases {
		sc := smallScenario(hetFactory)
		sc.Membership = tc.plan
		if _, err := Run(sc, spec, Engine{Kind: Hadoop}); err == nil || !strings.Contains(err.Error(), "membership plan") {
			t.Errorf("%s: Run error = %v, want a membership plan error", tc.name, err)
		}
		wl := testWorkload(1, 2)
		wl.Membership = tc.plan
		if _, err := RunWorkload(wl); err == nil || !strings.Contains(err.Error(), "membership plan") {
			t.Errorf("%s: RunWorkload error = %v, want a membership plan error", tc.name, err)
		}
	}
}

func TestEngineString(t *testing.T) {
	cases := map[string]Engine{
		"hadoop-64m":        {Kind: Hadoop},
		"hadoop-128m":       {Kind: Hadoop, SplitMB: 128},
		"hadoop-nospec-64m": {Kind: HadoopNoSpec, SplitMB: 64},
		"skewtune-64m":      {Kind: SkewTune, SplitMB: 64},
		"flexmap":           {Kind: FlexMap, SplitMB: 999}, // split ignored
	}
	for want, eng := range cases {
		if got := eng.String(); got != want {
			t.Errorf("Engine%+v.String() = %q, want %q", eng, got, want)
		}
	}
}

// TestDeterminismAcrossRuns runs each cell twice at one seed and requires
// the fired-event sequence, the JSONL trace bytes and every Result field
// to replay exactly. Beyond the plain heterogeneous run, the cells cover
// each feature that schedules its own events: crash injection with
// liveness detection and recovery, elastic membership with a mid-run
// join, drain and release (flat and racked), the occupancy autoscaler,
// and the topology fabric.
func TestDeterminismAcrossRuns(t *testing.T) {
	spec50, err := specForEquiv(50)
	if err != nil {
		t.Fatal(err)
	}
	spec40, err := specForEquiv(40)
	if err != nil {
		t.Fatal(err)
	}
	cell50 := func(name string) Scenario {
		return Scenario{Name: name, Cluster: equivCluster(50), Seed: 42, InputSize: 50 * 2 * dfs.BUSize}
	}
	faulty := cell50("replay-faults")
	// Crashes dense and short enough that injection, liveness detection
	// and a rejoin all land inside the job.
	faulty.Faults = faults.Plan{CrashRate: 120, MeanDowntime: 20}
	churn := cell50("replay-membership")
	churn.Membership = equivMembership()
	rackedChurn := churn
	rackedChurn.Cluster = rackCluster(50, 6, 4)
	// A one-second cadence with no debounce, so the autoscaler both
	// scales out and drains within the job.
	autoscaled := cell50("replay-autoscale")
	autoscaled.Membership = elastic.Plan{
		Spares:    4,
		SpareSpec: cluster.NodeSpec{Class: "spare", BaseSpeed: 2.0, Slots: 2},
		Notice:    2,
		Autoscale: &elastic.Autoscaler{Interval: 1, Streak: 1, Cooldown: 1},
	}
	racked := Scenario{Name: "replay-net", Cluster: rackCluster(40, 10, 4), Seed: 42, InputSize: 40 * 2 * dfs.BUSize}

	// Coverage guards: a cell whose run no longer reaches the feature it
	// stands for proves nothing about that feature's determinism.
	traceHas := func(kinds ...string) func(*testing.T, []byte, *Result) {
		return func(t *testing.T, raw []byte, _ *Result) {
			for _, kind := range kinds {
				if !strings.Contains(string(raw), `"`+kind+`"`) {
					t.Fatalf("cell trace has no %s event; the cell no longer covers it", kind)
				}
			}
		}
	}
	churnGuard := traceHas("node-join", "node-drain", "node-release")
	cells := []struct {
		name  string
		sc    Scenario
		spec  mr.JobSpec
		eng   Engine
		guard func(*testing.T, []byte, *Result)
	}{
		{"heterogeneous", smallScenario(hetFactory), wcSpec(t, 4), Engine{Kind: FlexMap}, nil},
		{"faults", faulty, spec50, Engine{Kind: Hadoop}, traceHas("fault-inject", "fault-detect", "fault-recover")},
		{"membership", churn, spec50, Engine{Kind: FlexMap}, churnGuard},
		{"membership-topology", rackedChurn, spec50, Engine{Kind: FlexMap}, churnGuard},
		{"autoscaler", autoscaled, spec50, Engine{Kind: FlexMap}, traceHas("node-join", "node-drain")},
		{"topology", racked, spec40, Engine{Kind: FlexMap}, func(t *testing.T, _ []byte, res *Result) {
			if res.CrossRackBytes == 0 {
				t.Fatal("topology run moved no cross-rack bytes; fabric not exercised")
			}
		}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			wantF, wantT, wantR := runEquivCell(t, c.sc, c.spec, c.eng)
			if c.guard != nil {
				c.guard(t, wantT, wantR)
			}
			gotF, gotT, gotR := runEquivCell(t, c.sc, c.spec, c.eng)
			diffFirings(t, "replay", gotF, wantF)
			if string(gotT) != string(wantT) {
				t.Errorf("replay: JSONL trace bytes differ (%d vs %d bytes)", len(gotT), len(wantT))
			}
			compareResults(t, "replay", gotR, wantR)
		})
	}
}

// equivSpeeds cycles the paper testbed's four machine generations, as the
// repo benchmark's clusters do, so replay and allocation cells run on a
// heterogeneous cluster.
var equivSpeeds = []float64{1.0, 1.5, 2.4, 2.8}

func equivCluster(n int) ClusterFactory {
	return func() (*cluster.Cluster, cluster.Interferer) {
		specs := make([]cluster.NodeSpec, n)
		for i := range specs {
			specs[i] = cluster.NodeSpec{
				Name:      fmt.Sprintf("eq-%04d", i),
				BaseSpeed: equivSpeeds[i%len(equivSpeeds)],
				Slots:     2,
			}
		}
		return cluster.NewCluster(fmt.Sprintf("equiv-%d", n), specs), nil
	}
}

func specForEquiv(n int) (mr.JobSpec, error) {
	reducers := n / 4
	if reducers < 4 {
		reducers = 4
	}
	spec := mr.JobSpec{
		Name:         "equiv",
		InputFile:    "input",
		MapCost:      1,
		ShuffleRatio: 0.3,
		ReduceCost:   0.5,
		NumReducers:  reducers,
	}
	return spec, spec.Validate()
}

// equivMembership is the replay battery's canonical churn plan: scripted
// early join/drain so fleet changes land inside even the shortest cell,
// plus drawn churn and a spot reclaim on top. The cells finish in
// single-digit sim seconds, so the churn rates are extreme and the
// notices tiny: joins, drains AND releases must all land while maps are
// still running or the cell only covers the join path.
func equivMembership() elastic.Plan {
	return elastic.Plan{
		Spares:        4,
		SpareSpec:     cluster.NodeSpec{Class: "spare", BaseSpeed: 2.0, Slots: 2},
		JoinsPerHour:  3600,
		LeavesPerHour: 1800,
		SpotFraction:  0.5,
		Notice:        2,
		SpotNotice:    1,
		Script: []elastic.Event{
			{At: 1, Node: 50, Kind: elastic.Join},
			{At: 3, Node: 50, Kind: elastic.Drain},
		},
	}
}

// firing is one observed event dispatch.
type firing struct {
	at   sim.Time
	name string
}

// runEquivCell runs one scenario, capturing the fired sequence and trace
// bytes alongside the result.
func runEquivCell(t *testing.T, sc Scenario, spec mr.JobSpec, eng Engine) ([]firing, []byte, *Result) {
	t.Helper()
	sc.Trace.JSONLPath = filepath.Join(t.TempDir(), "trace.jsonl")
	var fired []firing
	sc.OnFire = func(at sim.Time, name string) { fired = append(fired, firing{at, name}) }
	res, err := Run(sc, spec, eng)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(sc.Trace.JSONLPath)
	if err != nil {
		t.Fatal(err)
	}
	return fired, raw, res
}

// diffFirings reports the first divergence between two fired sequences.
func diffFirings(t *testing.T, label string, got, want []firing) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: fired %d events, first run fired %d", label, len(got), len(want))
	}
	for i := range want {
		if i >= len(got) {
			return
		}
		if got[i] != want[i] {
			t.Fatalf("%s: fired sequence diverges at event %d: got (%v, %s), want (%v, %s)",
				label, i, got[i].at, got[i].name, want[i].at, want[i].name)
		}
	}
}

// compareResults asserts every comparable field of two run results is
// identical (the cluster and tracer pointers are per-run objects).
func compareResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.JobResult, want.JobResult) {
		t.Errorf("%s: JobResult differs:\ngot  %+v\nwant %+v", label, got.JobResult, want.JobResult)
	}
	if !reflect.DeepEqual(got.SizeTrace, want.SizeTrace) {
		t.Errorf("%s: SizeTrace differs (%d vs %d samples)", label, len(got.SizeTrace), len(want.SizeTrace))
	}
	if !reflect.DeepEqual(got.BUCommits, want.BUCommits) {
		t.Errorf("%s: BUCommits differs", label)
	}
	if got.SimEvents != want.SimEvents {
		t.Errorf("%s: SimEvents = %d, want %d", label, got.SimEvents, want.SimEvents)
	}
	if got.NodeHours != want.NodeHours || got.CrossRackBytes != want.CrossRackBytes {
		t.Errorf("%s: NodeHours/CrossRackBytes = %v/%d, want %v/%d",
			label, got.NodeHours, got.CrossRackBytes, want.NodeHours, want.CrossRackBytes)
	}
}

func TestNoiseToggle(t *testing.T) {
	sc := smallScenario(homoFactory(4))
	sc.NoiseSigma = -1 // disabled
	res, err := Run(sc, wcSpec(t, 0), Engine{Kind: HadoopNoSpec, SplitMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Without noise, all same-size local tasks on a uniform cluster have
	// identical runtimes.
	first := res.MapAttempts()[0].Runtime()
	for _, a := range res.MapAttempts() {
		if a.Runtime() != first {
			t.Fatalf("noise-free runtimes differ: %v vs %v", a.Runtime(), first)
		}
	}

	sc.NoiseSigma = 0.3
	res2, err := Run(sc, wcSpec(t, 0), Engine{Kind: HadoopNoSpec, SplitMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	first2 := res2.MapAttempts()[0].Runtime()
	for _, a := range res2.MapAttempts() {
		if a.Runtime() != first2 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("noise enabled but runtimes identical")
	}
}

func TestLiveExecutionIdenticalAcrossEngines(t *testing.T) {
	data := datagen.Wikipedia(int(3*dfs.BUSize), 11)
	sc := Scenario{
		Name:      "live",
		Cluster:   hetFactory,
		Seed:      11,
		InputData: data,
	}
	spec, err := puma.Spec(puma.WordCount, "input", 3)
	if err != nil {
		t.Fatal(err)
	}
	var outputs []map[string]string
	for _, eng := range []Engine{
		{Kind: Hadoop, SplitMB: 64},
		{Kind: HadoopNoSpec, SplitMB: 64},
		{Kind: SkewTune, SplitMB: 64},
		{Kind: FlexMap},
	} {
		res, err := Run(sc, spec, eng)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if len(res.Output) == 0 {
			t.Fatalf("%s: live run produced no output", eng)
		}
		outputs = append(outputs, res.Output)
	}
	base := outputs[0]
	for i, out := range outputs[1:] {
		if len(out) != len(base) {
			t.Fatalf("engine %d output size %d != %d", i+1, len(out), len(base))
		}
		for k, v := range base {
			if out[k] != v {
				t.Fatalf("engine %d disagrees on %q: %q vs %q", i+1, k, out[k], v)
			}
		}
	}
}

func TestFlexMapSizeTracePopulated(t *testing.T) {
	res, err := Run(smallScenario(hetFactory), wcSpec(t, 2), Engine{Kind: FlexMap})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SizeTrace) == 0 {
		t.Fatal("FlexMap run has no size trace")
	}
	stock, err := Run(smallScenario(hetFactory), wcSpec(t, 2), Engine{Kind: Hadoop})
	if err != nil {
		t.Fatal(err)
	}
	if stock.SizeTrace != nil {
		t.Fatal("stock run unexpectedly has a size trace")
	}
}

func TestVirtualClusterInterferenceStops(t *testing.T) {
	// The interference ticker must stop with the job or the run would hit
	// the scheduler-hang deadline.
	sc := Scenario{
		Name: "virt",
		Cluster: func() (*cluster.Cluster, cluster.Interferer) {
			c, inf := cluster.Virtual20(5)
			return c, inf
		},
		Seed:      5,
		InputSize: 128 * dfs.BUSize,
	}
	res, err := Run(sc, wcSpec(t, 8), Engine{Kind: FlexMap})
	if err != nil {
		t.Fatal(err)
	}
	if res.JCT() <= 0 {
		t.Fatal("bad JCT")
	}
}

func TestFlexAblationVariants(t *testing.T) {
	sc := smallScenario(hetFactory)
	spec := wcSpec(t, 4)
	jcts := map[string]float64{}
	for _, variant := range []string{"", "no-vertical", "no-horizontal", "no-bias", "no-spec"} {
		res, err := Run(sc, spec, Engine{Kind: FlexMap, FlexAblation: variant})
		if err != nil {
			t.Fatalf("%q: %v", variant, err)
		}
		jcts[variant] = float64(res.JCT())
		// Exactly-once invariant holds under every ablation.
		total := 0
		for _, a := range res.MapAttempts() {
			total += a.BUs
		}
		if total != 64 {
			t.Fatalf("%q: covered %d BUs, want 64", variant, total)
		}
	}
	// no-vertical keeps every size unit at 1 BU: many more tasks, slower.
	if jcts["no-vertical"] <= jcts[""] {
		t.Errorf("no-vertical (%.1f) should be slower than full (%.1f)", jcts["no-vertical"], jcts[""])
	}
}

func TestFlexAblationUnknownRejected(t *testing.T) {
	_, err := Run(smallScenario(hetFactory), wcSpec(t, 2),
		Engine{Kind: FlexMap, FlexAblation: "no-such-mechanism"})
	if err == nil {
		t.Fatal("unknown ablation accepted")
	}
}

func TestFlexAblationEngineNames(t *testing.T) {
	e := Engine{Kind: FlexMap, FlexAblation: "no-bias"}
	if e.String() != "flexmap[no-bias]" {
		t.Fatalf("String() = %q", e.String())
	}
}

func TestMaxSimTimeDeadlineErrors(t *testing.T) {
	sc := smallScenario(hetFactory)
	sc.MaxSimTime = 1 // far too short for any job
	if _, err := Run(sc, wcSpec(t, 2), Engine{Kind: Hadoop}); err == nil {
		t.Fatal("deadline-exceeded run reported success")
	}
}

func TestInterferenceMidReduceDoesNotDeadlock(t *testing.T) {
	// A node collapsing during the reduce phase must re-plan the running
	// reduce work, not strand it.
	collapsing := func() (*cluster.Cluster, cluster.Interferer) {
		c := cluster.HomogeneousPaper(3)
		return c, &midJobCollapse{c: c}
	}
	sc := Scenario{Name: "collapse", Cluster: collapsing, Seed: 4, InputSize: 48 * dfs.BUSize}
	res, err := Run(sc, wcSpec(t, 3), Engine{Kind: HadoopNoSpec, SplitMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished <= res.MapPhaseEnd {
		t.Fatal("reduce phase missing")
	}
}

// midJobCollapse slows node 0 to 10% at t=30 (mid-reduce for this job).
type midJobCollapse struct{ c *cluster.Cluster }

func (m *midJobCollapse) Start(eng *sim.Engine) {
	eng.At(30, "collapse", func() { m.c.Node(0).SetInterference(0.1) })
}
func (m *midJobCollapse) Stop() {}

func TestReplicationOneStillExactlyOnce(t *testing.T) {
	sc := smallScenario(hetFactory)
	sc.Replication = 1
	for _, eng := range []Engine{{Kind: Hadoop, SplitMB: 64}, {Kind: FlexMap}} {
		res, err := Run(sc, wcSpec(t, 2), eng)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		total := 0
		for _, a := range res.MapAttempts() {
			total += a.BUs
		}
		if total != 64 {
			t.Fatalf("%s: covered %d BUs with replication 1", eng, total)
		}
	}
}

func TestTinyInputSingleBU(t *testing.T) {
	sc := smallScenario(hetFactory)
	sc.InputSize = 1 // one partial BU
	for _, eng := range []Engine{{Kind: Hadoop, SplitMB: 64}, {Kind: SkewTune, SplitMB: 64}, {Kind: FlexMap}} {
		res, err := Run(sc, wcSpec(t, 1), eng)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if len(res.MapAttempts()) != 1 {
			t.Fatalf("%s: %d map attempts for a 1-byte file", eng, len(res.MapAttempts()))
		}
	}
}

func TestSkewSigmaSlowsHotTasks(t *testing.T) {
	sc := smallScenario(homoFactory(4))
	sc.NoiseSigma = -1
	uniform, err := Run(sc, wcSpec(t, 0), Engine{Kind: HadoopNoSpec, SplitMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	sc.SkewSigma = 0.8
	skewed, err := Run(sc, wcSpec(t, 0), Engine{Kind: HadoopNoSpec, SplitMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Same total work in expectation, but the hot-task tail must create
	// runtime spread that uniform data does not have.
	spread := func(r *Result) float64 {
		min, max := 1e18, 0.0
		for _, a := range r.MapAttempts() {
			rt := float64(a.Runtime())
			if rt < min {
				min = rt
			}
			if rt > max {
				max = rt
			}
		}
		return max / min
	}
	if spread(uniform) != 1.0 {
		t.Fatalf("uniform noise-free spread = %v, want exactly 1", spread(uniform))
	}
	if spread(skewed) < 1.5 {
		t.Fatalf("skewed spread = %v, want ≥ 1.5", spread(skewed))
	}
}

func TestTracingDoesNotPerturbRun(t *testing.T) {
	sc := smallScenario(hetFactory)
	spec := wcSpec(t, 4)
	plain, err := Run(sc, spec, Engine{Kind: FlexMap})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced run carries a tracer")
	}
	sc.Trace = trace.Options{Collect: true}
	traced, err := Run(sc, spec, Engine{Kind: FlexMap})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil || len(traced.Trace.Events()) == 0 {
		t.Fatal("traced run collected no events")
	}
	// The observability contract: enabling tracing changes nothing the
	// simulation computes — same JCT, same attempt records, bit for bit.
	if plain.JCT() != traced.JCT() {
		t.Fatalf("tracing changed JCT: %v vs %v", plain.JCT(), traced.JCT())
	}
	if len(plain.Attempts) != len(traced.Attempts) {
		t.Fatalf("tracing changed attempt count: %d vs %d", len(plain.Attempts), len(traced.Attempts))
	}
	for i := range plain.Attempts {
		if plain.Attempts[i] != traced.Attempts[i] {
			t.Fatalf("attempt %d differs:\n%+v\n%+v", i, plain.Attempts[i], traced.Attempts[i])
		}
	}
}

func TestTraceFilesDeterministicAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	sc := smallScenario(hetFactory)
	sc.Faults = faults.Plan{CrashRate: 2, SlowdownRate: 4, PreemptRate: 4}
	spec := wcSpec(t, 4)
	run := func(name string) []byte {
		s := sc
		s.Trace = trace.Options{
			JSONLPath:    filepath.Join(dir, name+".jsonl"),
			PerfettoPath: filepath.Join(dir, name+".perfetto.json"),
		}
		if _, err := Run(s, spec, Engine{Kind: FlexMap}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(s.Trace.JSONLPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatal("empty trace file")
		}
		return b
	}
	if !bytes.Equal(run("a"), run("b")) {
		t.Fatal("same-seed runs wrote different JSONL bytes")
	}
	if _, err := os.Stat(filepath.Join(dir, "a.perfetto.json")); err != nil {
		t.Fatalf("perfetto file missing: %v", err)
	}
}

func TestTraceRecordsFaultEvents(t *testing.T) {
	sc := smallScenario(hetFactory)
	// High rates so faults land within a short job's lifetime.
	sc.Faults = faults.Plan{CrashRate: 200, MeanDowntime: 30, SlowdownRate: 200}
	sc.Trace = trace.Options{Collect: true}
	res, err := Run(sc, wcSpec(t, 2), Engine{Kind: FlexMap})
	if err != nil {
		if jf, ok := err.(*JobFailedError); ok {
			res = jf.Result
		} else {
			t.Fatal(err)
		}
	}
	injected := 0
	for _, e := range res.Trace.Events() {
		if e.Kind == trace.KindFaultInject {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("crash plan injected no traced faults")
	}
}
