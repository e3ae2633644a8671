package skewtune

import (
	"fmt"
	"sort"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/engine"
	"flexmap/internal/mr"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/yarn"
)

// referenceStraggler is the victim scan the in-place walk replaced: every
// running attempt sorted by task ID, the ones whose SplitBUs remainder is
// shorter than minBUs skipped, and the first maximum of EstRemaining kept.
// ties counts the other candidates that share the maximum.
func referenceStraggler(d *engine.Driver, now sim.Time) (victim *engine.MapAttempt, worst sim.Duration, ties int) {
	var all []*engine.MapAttempt
	d.EachRunningMap(func(a *engine.MapAttempt) { all = append(all, a) })
	sort.Slice(all, func(i, j int) bool { return all[i].Task < all[j].Task })
	worst = -1
	for _, a := range all {
		if _, rem := a.SplitBUs(now); len(rem) < minBUs {
			continue
		}
		switch r := a.EstRemaining(now); {
		case r > worst:
			worst, victim, ties = r, a, 0
		case r == worst:
			ties++
		}
	}
	return victim, worst, ties
}

// victimAudit stands between the RM and the AM. At every offer that
// reaches repartition — map phase running, nothing pending, so TryDispatch
// declines without touching the running lists — it compares the AM's
// straggler with the reference before passing the offer on.
type victimAudit struct {
	t      *testing.T
	am     *AM
	probes int
	picks  int
	tied   int // probes whose maximum several candidates share
}

func (v *victimAudit) OnSlotFree(n *cluster.Node) bool {
	if !v.am.Idle() && v.am.stock.PendingCount() == 0 {
		now := v.am.d.Eng.Now()
		got, gotR := v.am.straggler(now)
		want, wantR, ties := referenceStraggler(v.am.d, now)
		if got != want || gotR != wantR {
			v.t.Fatalf("t=%v: straggler %s (%v), reference %s (%v)", now, taskOf(got), gotR, taskOf(want), wantR)
		}
		v.probes++
		if got != nil {
			v.picks++
		}
		if ties > 0 {
			v.tied++
		}
	}
	return v.am.OnSlotFree(n)
}

func (v *victimAudit) Idle() bool { return v.am.Idle() }

func taskOf(a *engine.MapAttempt) string {
	if a == nil {
		return "<nil>"
	}
	return a.Task
}

// multiTenantJob builds one SkewTune job over a bus-BU input (its final
// BU short) on the 40-node multi-tenant cluster of Fig. 8, with runtime
// noise (when noisy) and data skew (when sigma > 0). Interference is
// armed; the caller starts the RM.
func multiTenantJob(tb testing.TB, bus int64, frac float64, seed int64, sigma float64, noisy bool) *AM {
	tb.Helper()
	c, inter := cluster.MultiTenant40(frac, seed)
	eng := sim.New()
	rng := randutil.New(seed)
	store := dfs.NewStore(c, 3, rng.Split("placement"))
	if _, err := store.AddFile("input", bus*dfs.BUSize-dfs.BUSize/3); err != nil {
		tb.Fatal(err)
	}
	if sigma > 0 {
		store.ApplySkew(rng.Split("data-skew"), sigma)
	}
	rm := yarn.NewRM(eng, c)
	spec := mr.JobSpec{Name: "wc", InputFile: "input", NumReducers: 8,
		MapCost: 1, ShuffleRatio: 0.2, ReduceCost: 1}
	d, err := engine.NewDriver(engine.NewExecutor(eng, c, engine.BaseIPS), store, rm, spec)
	if err != nil {
		tb.Fatal(err)
	}
	if noisy {
		d.Noise = rng.Split("runtime-noise")
		d.NoiseSigma = 0.25
	}
	am, err := New(d, 8)
	if err != nil {
		tb.Fatal(err)
	}
	inter.Start(eng)
	d.OnFinished(inter.Stop)
	return am
}

// auditRun runs a 300-BU multiTenantJob to completion, auditing every
// repartition probe.
func auditRun(t *testing.T, frac float64, seed int64, sigma float64, noisy bool) (*victimAudit, *engine.Driver) {
	t.Helper()
	am := multiTenantJob(t, 300, frac, seed, sigma, noisy)
	audit := &victimAudit{t: t, am: am}
	am.d.RM.SetScheduler(audit)
	am.d.RM.Start()
	am.d.Eng.RunUntil(1e7)
	if !am.d.Finished() {
		t.Fatal("skewtune job did not finish")
	}
	return audit, am.d
}

// BenchmarkRepartitionProbe times one straggler scan over a full first
// wave of a Fig. 8-style job: the work every declined idle offer does.
func BenchmarkRepartitionProbe(b *testing.B) {
	am := multiTenantJob(b, 2000, 0.4, 42, 0.8, true)
	am.d.RM.Start()
	am.d.Eng.RunUntil(20)
	running := 0
	am.d.EachRunningMap(func(*engine.MapAttempt) { running++ })
	now := am.d.Eng.Now()
	if v, _ := am.straggler(now); v == nil {
		b.Fatal("no straggler candidate")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		am.straggler(now)
	}
	b.ReportMetric(float64(running), "candidates")
}

// TestStragglerMatchesReference audits the in-place victim scan against
// the sorted reference at every repartition probe of Fig. 8-style runs:
// three seeds, two slow fractions, with and without data skew, and with
// and without runtime noise. Noise-free runs launch identical tasks on
// identical nodes, so they exercise the task-ID tie-break.
func TestStragglerMatchesReference(t *testing.T) {
	var probes, picks, tied int
	var moved int64
	for _, seed := range []int64{42, 7, 2017} {
		for _, frac := range []float64{0.1, 0.4} {
			for _, sigma := range []float64{0, 0.8} {
				for _, noisy := range []bool{true, false} {
					t.Run(fmt.Sprintf("seed%d/slow%v/skew%v/noise%v", seed, frac, sigma, noisy), func(t *testing.T) {
						a, d := auditRun(t, frac, seed, sigma, noisy)
						probes += a.probes
						picks += a.picks
						tied += a.tied
						moved += d.Result.RepartitionBytes
					})
				}
			}
		}
	}
	// The audit must have seen real decisions and ties, not just empty
	// scans.
	if probes < 100 || picks < 50 || tied == 0 || moved == 0 {
		t.Fatalf("audit too thin: %d probes, %d with a candidate, %d tied, %d bytes repartitioned", probes, picks, tied, moved)
	}
	t.Logf("%d probes, %d with a candidate, %d tied, %d bytes repartitioned", probes, picks, tied, moved)
}
