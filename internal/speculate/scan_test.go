package speculate

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/core"
	"flexmap/internal/dfs"
	"flexmap/internal/elastic"
	"flexmap/internal/engine"
	"flexmap/internal/faults"
	"flexmap/internal/mr"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/skewtune"
	"flexmap/internal/yarn"
)

// scoredAttempt pairs an attempt with its observed progress rate.
type scoredAttempt struct {
	a    *engine.MapAttempt
	rate float64
}

// refSelectVictim is selectVictim as it was while the candidate set was
// unordered: it visits every candidate (skipping tombstones) and ranks
// the threshold with a full sort.
func refSelectVictim(now sim.Time, candidates []*engine.MapAttempt) (*engine.MapAttempt, sim.Duration) {
	var mature []scoredAttempt
	var rates []float64
	for _, a := range candidates {
		if a == nil || a.Killed() {
			continue
		}
		age := sim.Duration(now - a.Start)
		if age < minAge {
			continue
		}
		r := a.Progress(now) / float64(age)
		mature = append(mature, scoredAttempt{a, r})
		rates = append(rates, r)
	}
	if len(mature) == 0 {
		return nil, -1
	}
	sort.Float64s(rates)
	idx := int(slowTaskPercentile * float64(len(rates)))
	if idx >= len(rates) {
		idx = len(rates) - 1
	}
	threshold := rates[idx]
	var victim *engine.MapAttempt
	var worst sim.Duration = -1
	for _, s := range mature {
		if s.rate > threshold {
			continue
		}
		if rem := s.a.EstRemaining(now); rem > worst || (rem == worst && victim != nil && s.a.Task < victim.Task) {
			worst, victim = rem, s.a
		}
	}
	return victim, worst
}

// scanAudit wraps LATE and, at every Pick and Idle probe, requires the
// victim and remaining time of the cut-off scan to equal the full scan's.
// It also counts the probes where the cut-off skipped a live candidate,
// and the candidates that left the set and came back (Drop promoting a
// surviving original). onCopy, when set, hears the node of every
// speculative copy a Pick launches.
type scanAudit struct {
	t      *testing.T
	l      *LATE
	onCopy func(*cluster.Node)

	probes, cut, promoted int
	prev, gone            map[*engine.MapAttempt]bool
}

func newScanAudit(t *testing.T) *scanAudit {
	return &scanAudit{t: t, l: NewLATE(), prev: map[*engine.MapAttempt]bool{}, gone: map[*engine.MapAttempt]bool{}}
}

func (a *scanAudit) Pick(d *engine.Driver, node *cluster.Node, cands []*engine.MapAttempt, epoch uint64, active int) *engine.MapAttempt {
	v := a.l.Pick(d, node, cands, epoch, active)
	a.check(d.Eng.Now(), cands, epoch)
	if v != nil && a.onCopy != nil {
		a.onCopy(node)
	}
	return v
}

func (a *scanAudit) Idle(d *engine.Driver, cands []*engine.MapAttempt, epoch uint64, active int) bool {
	idle := a.l.Idle(d, cands, epoch, active)
	a.check(d.Eng.Now(), cands, epoch)
	return idle
}

func (a *scanAudit) check(now sim.Time, cands []*engine.MapAttempt, epoch uint64) {
	a.probes++
	got, gotWorst := a.l.victim(now, cands, epoch)
	want, wantWorst := refSelectVictim(now, cands)
	if got != want || math.Float64bits(float64(gotWorst)) != math.Float64bits(float64(wantWorst)) {
		a.t.Fatalf("t=%v: cut-off scan chose %s (%v remaining), full scan %s (%v)",
			now, taskOf(got), gotWorst, taskOf(want), wantWorst)
	}
	cur := make(map[*engine.MapAttempt]bool, len(cands))
	immature := false
	for _, c := range cands {
		if c == nil {
			continue
		}
		cur[c] = true
		if a.gone[c] {
			a.promoted++
			delete(a.gone, c)
		}
		immature = immature || sim.Duration(now-c.Start) < minAge
	}
	for c := range a.prev {
		if !cur[c] {
			a.gone[c] = true
		}
	}
	a.prev = cur
	if immature {
		a.cut++
	}
}

func taskOf(a *engine.MapAttempt) string {
	if a == nil {
		return "none"
	}
	return a.Task
}

// runAudited runs one job under the engine with the audit as its
// speculation policy, through random crashes with restores, preemptions
// of speculative copies, and two elastic spares that join, one of which
// drains.
// SkewTune's stock AM runs with no policy in production; here the audit
// is installed on it so LATE reads a book that SkewTune's repartitions
// kill tasks in.
func runAudited(t *testing.T, kind string, seed int64, audit *scanAudit) {
	specs := make([]cluster.NodeSpec, 16)
	for i := range specs {
		specs[i] = cluster.NodeSpec{Name: fmt.Sprintf("n%02d", i), BaseSpeed: []float64{1, 1.5, 2.4, 0.3}[i%4], Slots: 2}
	}
	clus := cluster.NewCluster("scan", specs)
	spares := clus.AddSpares(2, cluster.NodeSpec{BaseSpeed: 1.5, Slots: 2})
	eng := sim.New()
	spec := mr.JobSpec{Name: "wc", InputFile: "input", MapCost: 1, ShuffleRatio: 0.1, ReduceCost: 0.5, NumReducers: 4}
	store := dfs.NewStore(clus, 3, randutil.New(seed))
	if _, err := store.AddFile(spec.InputFile, 1280*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	rm := yarn.NewRM(eng, clus)
	d, err := engine.NewDriver(engine.NewExecutor(eng, clus, engine.BaseIPS), store, rm, spec)
	if err != nil {
		t.Fatal(err)
	}
	d.Noise = randutil.New(seed + 1)
	d.NoiseSigma = 0.2
	var sched yarn.Scheduler
	var speeds func(cluster.NodeID) float64
	switch kind {
	case "stock":
		sched, err = engine.NewStockAM(d, 8, audit)
	case "skewtune":
		var am *skewtune.AM
		if am, err = skewtune.New(d, 8); am != nil {
			am.Stock().Speculation = audit
		}
		sched = am
	case "flexmap":
		var am *core.AM
		am, err = core.NewAM(d, randutil.New(seed+2))
		if am != nil {
			am.Speculation = audit
			speeds = am.RelativeSpeed
		}
		sched = am
	}
	if err != nil {
		t.Fatal(err)
	}
	rm.SetScheduler(sched)

	w := yarn.NewNodeWatcher(eng, clus, rm)
	d.OnFinished(eng.Stop)
	target := engine.NewFaultTarget(clus)
	target.Add(d)
	target.AttachWatcher(w)
	plan := faults.Plan{CrashRate: 90, MeanDowntime: 15}
	inj := faults.NewInjector(eng, clus, plan.Schedule(seed, len(specs)), target)
	inj.Start()
	// A second after every other speculative launch, the copy's node
	// has its map attempts preempted: the copy dies while its original
	// runs on, and Drop promotes the original.
	copies := 0
	audit.onCopy = func(n *cluster.Node) {
		if copies++; copies%2 == 0 {
			eng.After(1, "preempt-copy", func() { target.DrainNode(n.ID) })
		}
	}
	ctl := elastic.NewController(eng, clus, rm, target, elastic.Plan{
		Spares: len(spares),
		Notice: 5,
		Script: []elastic.Event{
			{At: 5, Node: spares[0], Kind: elastic.Join},
			{At: 10, Node: spares[1], Kind: elastic.Join},
			{At: 25, Node: spares[0], Kind: elastic.Drain},
		},
	}, spares)
	ctl.SetWatcher(w)
	ctl.Speeds = speeds
	ctl.Start(seed)

	rm.Start()
	eng.RunUntil(1e6)
	if !d.Finished() {
		t.Fatal("job did not finish")
	}
}

// TestLATEMatchesFullScan pins the launch-order cut-off: at every Pick
// and Idle probe of stock, FlexMap and SkewTune runs through crashes,
// restores, preemptions and an elastic drain, LATE's victim and its
// remaining time must equal those of the full scan over the same set.
// Faults kill speculative copies, so Drop re-inserts surviving originals
// among younger candidates; each engine's seeds must see that happen,
// and see probes where the cut-off skipped live candidates.
func TestLATEMatchesFullScan(t *testing.T) {
	for _, kind := range []string{"stock", "flexmap", "skewtune"} {
		t.Run(kind, func(t *testing.T) {
			var cut, promoted int
			for _, seed := range []int64{3, 11, 29} {
				audit := newScanAudit(t)
				runAudited(t, kind, seed, audit)
				t.Logf("seed %d: %d probes, %d cut off, %d promotions", seed, audit.probes, audit.cut, audit.promoted)
				cut += audit.cut
				promoted += audit.promoted
			}
			if cut == 0 || promoted == 0 {
				t.Fatal("the runs no longer cover cut-off probes and promoted originals")
			}
		})
	}
}
