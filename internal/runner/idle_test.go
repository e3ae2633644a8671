package runner

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/elastic"
	"flexmap/internal/faults"
	"flexmap/internal/trace"
	"flexmap/internal/workload"
	"flexmap/internal/yarn"
)

// offerProbe stands between the RM and the scheduler under test. It
// counts the offers that reach the scheduler and forwards Bound, and
// with check set it audits every bound, empty (idle) or not: it offers
// each free, up, non-draining node the bound rules out anyway and fails
// if an offer is accepted or changes the free slots, the event queue or
// the trace.
type offerProbe struct {
	t     *testing.T
	s     *stack
	inner yarn.Scheduler
	check bool
	stats *probeStats
}

type probeStats struct {
	offers  int // OnSlotFree calls that reached the scheduler
	audited int // empty bounds (idle answers) that were audited
	bounds  int // non-empty bounds that were audited
}

func (p *offerProbe) OnSlotFree(n *cluster.Node) bool {
	p.stats.offers++
	return p.inner.OnSlotFree(n)
}

// Bound forwards the inner scheduler's bound.
func (p *offerProbe) Bound(dst []cluster.NodeID) ([]cluster.NodeID, bool) {
	nodes, bounded := p.inner.Bound(dst)
	switch {
	case !bounded || !p.check:
	case len(nodes) == 0:
		p.stats.audited++
		p.audit("reported idle", nil)
	default:
		p.stats.bounds++
		p.audit(fmt.Sprintf("bound itself to nodes %v", nodes), nodes)
	}
	return nodes, bounded
}

// audit offers every free, up, non-draining node outside skip to the
// inner scheduler and fails if one is accepted or the offers act.
func (p *offerProbe) audit(claim string, skip []cluster.NodeID) {
	free, queued, traced := p.s.rm.TotalFree(), p.s.eng.Pending(), len(p.s.tracer.Events())
	for _, n := range p.s.clus.Nodes {
		if p.s.rm.FreeSlots(n.ID) <= 0 || n.Down() || n.Draining() || slices.Contains(skip, n.ID) {
			continue
		}
		if p.inner.OnSlotFree(n) {
			p.t.Fatalf("t=%v: scheduler %s, then accepted an offer on node %d", p.s.eng.Now(), claim, n.ID)
		}
	}
	if p.s.rm.TotalFree() != free || p.s.eng.Pending() != queued || len(p.s.tracer.Events()) != traced {
		p.t.Fatalf("t=%v: scheduler %s, then its declines acted: free %d→%d, queued events %d→%d, trace events %d→%d",
			p.s.eng.Now(), claim, free, p.s.rm.TotalFree(), queued, p.s.eng.Pending(), traced, len(p.s.tracer.Events()))
	}
}

// probeWith returns a wrap for run and runWorkload that installs a probe
// sharing stats.
func probeWith(t *testing.T, check bool, stats *probeStats) wrapper {
	return func(s *stack, inner yarn.Scheduler) yarn.Scheduler {
		return &offerProbe{t: t, s: s, inner: inner, check: check, stats: stats}
	}
}

// churnFaults and churnDrain are the crashes and the elastic drains the
// idle tests run 24-node clusters under; the spares are nodes 24 and 25.
// The half-second notice leaves map attempts running at each release,
// so the drains preempt them.
var (
	churnFaults = faults.Plan{CrashRate: 120, MeanDowntime: 20}
	churnDrain  = elastic.Plan{
		Spares:    2,
		SpareSpec: cluster.NodeSpec{Class: "spare", BaseSpeed: 2.0, Slots: 2},
		Notice:    0.5,
		Script: []elastic.Event{
			{At: 1, Node: 24, Kind: elastic.Join},
			{At: 2, Node: 25, Kind: elastic.Join},
			{At: 3, Node: 24, Kind: elastic.Drain},
			{At: 15, Node: 25, Kind: elastic.Drain},
		},
	}
)

// TestIdleDeclinesEveryOffer audits the Bound contract behind RM.Poke's
// skips. Every time a scheduler names a bound, empty (idle) or not,
// every node outside it that it could be offered is offered anyway, and
// no offer may be accepted or leave a trace, an event or a grant behind.
// The cells cover StockAM with LATE, FlexMap and SkewTune solo, crashes
// and an elastic drain, and the inter-job scheduler under the fair
// policy, with SkewTune beside stock and FlexMap jobs. The audit offers
// nodes from inside Bound, outside the Poke's loop, so each of its
// offers consults every job, including those Bound has just marked.
func TestIdleDeclinesEveryOffer(t *testing.T) {
	spec := wcSpec(t, 6)
	collect := trace.Options{Collect: true}
	cell := func(name string) Scenario {
		return Scenario{Name: name, Cluster: equivCluster(24), Seed: 42, InputSize: 24 * 3 * dfs.BUSize, Trace: collect}
	}
	// audit marks the cells whose runs must reach an idle answer: solo
	// FlexMap and SkewTune poke the RM only on recovery.
	type soloCell struct {
		eng   Engine
		sc    Scenario
		audit bool
	}
	solo := []soloCell{
		{Engine{Kind: Hadoop}, cell("hadoop"), true},
		{Engine{Kind: HadoopNoSpec}, cell("hadoop-nospec"), true},
		{Engine{Kind: FlexMap}, cell("flexmap"), false},
		{Engine{Kind: SkewTune}, cell("skewtune"), false},
	}
	for _, kind := range []EngineKind{Hadoop, FlexMap} {
		sc := cell(string(kind) + "-churn")
		sc.Faults = churnFaults
		sc.Membership = churnDrain
		solo = append(solo, soloCell{Engine{Kind: kind}, sc, true})
	}
	for _, c := range solo {
		t.Run(c.sc.Name, func(t *testing.T) {
			var stats probeStats
			if _, err := run(c.sc, spec, c.eng, probeWith(t, true, &stats)); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d offers, %d idle answers audited", stats.offers, stats.audited)
			if c.audit && stats.audited == 0 {
				t.Fatal("no idle answer was audited; the cell no longer exercises the skip")
			}
		})
	}

	mix := []WorkloadClass{
		{Name: "stock", Weight: 2, MinBytes: 8 * dfs.BUSize, MaxBytes: 24 * dfs.BUSize,
			Engine: Engine{Kind: Hadoop}, Spec: wcSpec(t, 3)},
		{Name: "flex", Weight: 2, MinBytes: 8 * dfs.BUSize, MaxBytes: 24 * dfs.BUSize,
			Engine: Engine{Kind: FlexMap}, Spec: wcSpec(t, 3)},
	}
	workloads := []WorkloadScenario{
		{Name: "fair", Policy: "fair", Classes: mix},
		{Name: "fair-skewtune", Policy: "fair", Classes: append(mix[:1:1], WorkloadClass{
			Name: "skew", Weight: 1, MinBytes: 8 * dfs.BUSize, MaxBytes: 24 * dfs.BUSize,
			Engine: Engine{Kind: SkewTune}, Spec: wcSpec(t, 3)})},
		func() WorkloadScenario { // its nested sweeps once offered a full node
			sc := nestedScenario(t, "fair", 1, FlexMap, SkewTune)
			sc.Name = "fair-flex-skewtune"
			return sc
		}(),
		{Name: "fair-churn", Policy: "fair", Classes: mix, Faults: churnFaults, Membership: churnDrain},
	}
	for _, sc := range workloads {
		if sc.Cluster == nil {
			sc.Cluster, sc.Seed = equivCluster(24), 42
			sc.Pattern = workload.Pattern{Jobs: 10, Rate: 0.5}
		}
		sc.Trace = collect
		t.Run("workload-"+sc.Name, func(t *testing.T) {
			var stats probeStats
			if _, err := runWorkload(sc, probeWith(t, true, &stats)); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d offers, %d idle answers and %d bounds audited", stats.offers, stats.audited, stats.bounds)
			if stats.audited == 0 || stats.bounds == 0 {
				t.Fatal("no idle answer or no bound was audited; the cell no longer exercises both skips")
			}
		})
	}
}

// fullWalk hides the inter-job scheduler's Bound from the RM: every
// Poke sweeps every node, no job is marked idle or bound, and every
// offer walks every job.
type fullWalk struct{ yarn.Scheduler }

func (fullWalk) Bound(dst []cluster.NodeID) ([]cluster.NodeID, bool) { return dst[:0], false }

// consulted returns the job schedulers an inter-job scheduler's offers
// have consulted so far. The count is an unexported field so that no
// caller outside a test can read it.
func consulted(ij *yarn.InterJob) int64 {
	return reflect.ValueOf(ij).Elem().FieldByName("consulted").Int()
}

// TestIdleMarksMatchFullWalk is the reference test for the idle marks: a
// Poke's own offers skip the jobs its Bound bound elsewhere. Each cell
// runs as is and again under fullWalk, and the two runs must agree on
// the JSONL trace, the fired-event count and every job's outcome. The
// cells put SkewTune, whose offers nest sweeps, beside stock and FlexMap
// jobs, and a stock and FlexMap mix under crashes and elastic drains
// that preempt both engines' map attempts, under each policy.
func TestIdleMarksMatchFullWalk(t *testing.T) {
	churn := func(policy string, seed int64) WorkloadScenario {
		sc := nestedScenario(t, policy, seed, Hadoop, FlexMap)
		sc.Pattern = workload.Pattern{Jobs: 10, Rate: 0.5}
		sc.Faults, sc.Membership = churnFaults, churnDrain
		return sc
	}
	var events int
	var marked, full int64
	preempted := map[string]int{}
	for _, policy := range []string{"fifo", "fair"} {
		for seed := int64(1); seed <= 4; seed++ {
			for _, sc := range []WorkloadScenario{
				nestedScenario(t, policy, seed, Hadoop, FlexMap, SkewTune),
				churn(policy, seed),
			} {
				sc.Trace = trace.Options{Collect: true}
				run := func(hide bool) (*WorkloadResult, int64) {
					var ij *yarn.InterJob
					res, err := runWorkload(sc, func(_ *stack, s yarn.Scheduler) yarn.Scheduler {
						ij = s.(*yarn.InterJob)
						if hide {
							return fullWalk{s}
						}
						return s
					})
					if err != nil {
						t.Fatalf("%s seed %d: %v", sc.Name, seed, err)
					}
					return res, consulted(ij)
				}
				a, na := run(false)
				b, nb := run(true)
				if !bytes.Equal(traceBytes(t, a), traceBytes(t, b)) {
					t.Fatalf("%s seed %d: traces differ with every offer walking every job", sc.Name, seed)
				}
				if a.SimEvents != b.SimEvents {
					t.Fatalf("%s seed %d: %d events fired, %d with every offer walking every job", sc.Name, seed, a.SimEvents, b.SimEvents)
				}
				if !reflect.DeepEqual(a.Jobs, b.Jobs) {
					t.Fatalf("%s seed %d: job outcomes differ with every offer walking every job", sc.Name, seed)
				}
				events += len(a.Trace.Events())
				marked, full = marked+na, full+nb
				for _, j := range a.Jobs {
					if sc.Membership.Active() {
						preempted[j.Engine] += j.Result.Preemptions
					}
				}
			}
		}
	}
	t.Logf("%d trace events matched; %d job consultations with idle marks, %d without; drains preempted %v",
		events, marked, full, preempted)
	if marked >= full {
		t.Fatal("the idle marks skipped no consultation; the cells no longer exercise them")
	}
	for eng, n := range preempted {
		if n == 0 {
			t.Fatalf("drains preempted no %s map attempt; the churn cells no longer reach OnPreempted", eng)
		}
	}
}
