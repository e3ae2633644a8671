package runner

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/core"
	"flexmap/internal/dfs"
	"flexmap/internal/elastic"
	"flexmap/internal/engine"
	"flexmap/internal/faults"
	"flexmap/internal/speculate"
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
func probeWith(t *testing.T, check bool, stats *probeStats) func(*stack, yarn.Scheduler) yarn.Scheduler {
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

// TestOffersPerEventScaling is the counted scaling gate: the offers the
// RM makes per fired event must not grow with the fleet. One WordCount
// job over 2 BUs per node with n/4 reducers runs at n = 200 and n = 2000,
// and the n = 2000 ratio must stay within 2× of the n = 200 one. Counts,
// not times, so the gate cannot flake. Before RM.Poke skipped idle
// sweeps, every expired locality wait offered every node to a stock AM
// with nothing left to place: 58 offers per event at n = 200 and 627 at
// n = 2000.
func TestOffersPerEventScaling(t *testing.T) {
	perEvent := func(n int, kind EngineKind) float64 {
		sc := Scenario{Name: "scaling", Cluster: equivCluster(n), Seed: 42, InputSize: int64(n*2) * dfs.BUSize}
		var stats probeStats
		res, err := run(sc, wcSpec(t, n/4), Engine{Kind: kind}, probeWith(t, false, &stats))
		if err != nil {
			t.Fatal(err)
		}
		return float64(stats.offers) / float64(res.SimEvents)
	}
	for _, kind := range []EngineKind{Hadoop, FlexMap} {
		small, large := perEvent(200, kind), perEvent(2000, kind)
		t.Logf("%s: %.2f offers/event at n=200, %.2f at n=2000", kind, small, large)
		if large > 2*small {
			t.Errorf("%s: %.2f offers/event at n=2000 is more than 2× the %.2f at n=200", kind, large, small)
		}
	}
}

// lateWalked returns the candidate entries a LATE policy's scans have
// visited so far, tombstones included. The count is an unexported field
// so that no caller outside a test can read it.
func lateWalked(l *speculate.LATE) int64 {
	return reflect.ValueOf(l).Elem().FieldByName("walked").Int()
}

// TestSpeculationWalkPerEvent is the counted gate on LATE's victim scan:
// the candidate entries it walks per fired event, tombstones included,
// for one WordCount job over 2 BUs per node on n = 2000. The candidate
// set is in launch order, so the scan stops at the first attempt younger
// than LATE's minimum age. FlexMap's endgame is mostly such attempts:
// a full scan walked 112 entries per event, the cut-off 1.0. Hadoop's
// endgame candidates are all mature, so its walk stays the live set plus
// the tombstones the book has yet to compact: 16.08, where the full scan
// walked 16.07. Counts, not times, so the gate cannot flake.
func TestSpeculationWalkPerEvent(t *testing.T) {
	for _, c := range []struct {
		kind EngineKind
		max  float64
	}{{Hadoop, 16.1}, {FlexMap, 10}} {
		const n = 2000
		sc := Scenario{Name: "walk", Cluster: equivCluster(n), Seed: 42, InputSize: int64(n*2) * dfs.BUSize}
		var am yarn.Scheduler
		keep := func(_ *stack, s yarn.Scheduler) yarn.Scheduler { am = s; return s }
		res, err := run(sc, wcSpec(t, n/4), Engine{Kind: c.kind}, keep)
		if err != nil {
			t.Fatal(err)
		}
		var policy engine.SpeculationPolicy
		switch am := am.(type) {
		case *engine.StockAM:
			policy = am.Speculation
		case *core.AM:
			policy = am.Speculation
		}
		perEvent := float64(lateWalked(policy.(*speculate.LATE))) / float64(res.SimEvents)
		t.Logf("%s: %.2f candidates walked per event at n=%d", c.kind, perEvent, n)
		if perEvent > c.max {
			t.Errorf("%s: %.2f candidates walked per event at n=%d, more than %.1f", c.kind, perEvent, n, c.max)
		}
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

// TestInterJobWalkPerEvent is the counted gate on the inter-job offer
// walk: job schedulers consulted per fired event, for one fair mix of 20
// WordCount jobs on 100 nodes. With only the idle marks, Hadoop's walk
// consulted 94.45 jobs per event and FlexMap's 11.14: jobs in their
// reduce phase, whose partitions queue for a few nodes, were offered
// every node, and LATE stayed busy when no node could win. With node
// bounds and LATE's fastest-node test they read 3.20 and 2.75. The gate
// is per event, not per offer, because the bounds cut the offers too.
// Counts, not times, so the gate cannot flake.
func TestInterJobWalkPerEvent(t *testing.T) {
	for _, c := range []struct {
		kind EngineKind
		max  float64
	}{{Hadoop, 4}, {FlexMap, 3.5}} {
		sc := WorkloadScenario{
			Name:    "walk",
			Cluster: equivCluster(100),
			Seed:    42,
			Pattern: workload.Pattern{Jobs: 20, Rate: 24},
			Classes: []WorkloadClass{{Name: "wc", Weight: 1, MinBytes: 8 * dfs.BUSize, MaxBytes: 24 * dfs.BUSize,
				Engine: Engine{Kind: c.kind}, Spec: wcSpec(t, 4)}},
			Policy: "fair",
		}
		var ij *yarn.InterJob
		res, err := runWorkload(sc, func(_ *stack, mux yarn.Scheduler) yarn.Scheduler {
			ij = mux.(*yarn.InterJob)
			return mux
		})
		if err != nil {
			t.Fatal(err)
		}
		perEvent := float64(consulted(ij)) / float64(res.SimEvents)
		t.Logf("%s: %.3f jobs consulted per event over %d events", c.kind, perEvent, res.SimEvents)
		if perEvent > c.max {
			t.Errorf("%s: %.3f jobs consulted per event, more than %.2f", c.kind, perEvent, c.max)
		}
	}
}
