package yarn

import (
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
)

// fakeJob is a minimal AM for conformance tests: it launches up to
// demand tasks (negative = unbounded), each holding its container for
// hold seconds before releasing.
type fakeJob struct {
	eng     *sim.Engine
	rm      *RM
	demand  int
	hold    sim.Duration
	granted int
	onGrant func()
}

func (f *fakeJob) OnSlotFree(n *cluster.Node) bool {
	if f.demand == 0 {
		return false
	}
	if f.demand > 0 {
		f.demand--
	}
	c := f.rm.Acquire(n)
	f.granted++
	if f.onGrant != nil {
		f.onGrant()
	}
	f.eng.After(f.hold, "fake-task-done", func() { c.Release() })
	return true
}

func (f *fakeJob) Idle() bool { return false }

// muxFixture builds an engine, cluster, RM, and InterJob over a policy.
func muxFixture(nodes int, p Policy) (*sim.Engine, *RM, *InterJob) {
	eng := sim.New()
	c := cluster.Homogeneous(nodes) // nodes × 2 slots
	rm := NewRM(eng, c)
	ij := NewInterJob(eng, rm, p)
	return eng, rm, ij
}

// TestFIFONeverReordersGrants: while an earlier job still has pending
// demand, no later job may receive a grant.
func TestFIFONeverReordersGrants(t *testing.T) {
	eng, rm, ij := muxFixture(4, FIFOPolicy{}) // 8 slots
	jobs := make([]*fakeJob, 3)
	for i := range jobs {
		i := i
		f := &fakeJob{eng: eng, rm: rm, demand: 20, hold: 10}
		f.onGrant = func() {
			for j := 0; j < i; j++ {
				if jobs[j].demand != 0 {
					t.Fatalf("t=%v: job %d granted while job %d still has %d pending tasks",
						eng.Now(), i, j, jobs[j].demand)
				}
			}
		}
		jobs[i] = f
		ij.Submit("job", 0, f)
	}
	rm.Start()
	eng.Run()
	for i, f := range jobs {
		if f.granted != 20 {
			t.Fatalf("job %d completed %d tasks, want 20", i, f.granted)
		}
	}
}

// TestFairConvergesToEqualShares: with every job backlogged, running
// containers spread within one of each other once the cluster is full.
func TestFairConvergesToEqualShares(t *testing.T) {
	eng, rm, ij := muxFixture(6, FairPolicy{}) // 12 slots across 3 jobs → 4 each
	const njobs = 3
	handles := make([]*JobHandle, njobs)
	for i := 0; i < njobs; i++ {
		f := &fakeJob{eng: eng, rm: rm, demand: -1, hold: 7}
		handles[i] = ij.Submit("job", 0, f)
	}
	rm.Start()
	// Check the spread at several instants after the fill phase; tasks
	// churn every 7 s so shares are continuously re-decided.
	for _, at := range []sim.Time{50, 100, 200} {
		eng.At(at, "check-fairness", func() {
			min, max := handles[0].running, handles[0].running
			for _, h := range handles[1:] {
				if r := h.running; r < min {
					min = r
				} else if r > max {
					max = r
				}
			}
			if max-min > 1 {
				t.Errorf("t=%v: running counts spread %d..%d, want within 1", eng.Now(), min, max)
			}
		})
	}
	eng.RunUntil(250)
}

// TestFairCountsSurviveNodeLoss: writing off a lost node's containers
// keeps fair-share accounting from leaking phantom usage.
func TestFairCountsSurviveNodeLoss(t *testing.T) {
	eng, rm, ij := muxFixture(2, FairPolicy{}) // 4 slots
	f := &fakeJob{eng: eng, rm: rm, demand: 4, hold: 1e9}
	h := ij.Submit("job", 0, f)
	rm.Start()
	eng.RunUntil(5)
	if h.running != 4 {
		t.Fatalf("running = %d, want 4", h.running)
	}
	eng.At(6, "crash", func() {
		rm.cluster.Node(0).SetDown(true)
		rm.NodeLost(0)
	})
	eng.RunUntil(10)
	if h.running != 2 {
		t.Fatalf("after node loss running = %d, want 2 (node 0's containers written off)", h.running)
	}
	// Restoring must not double-credit: the purge already ran at loss.
	eng.At(11, "restore", func() {
		rm.cluster.Node(0).SetDown(false)
		rm.NodeRestored(0)
	})
	eng.RunUntil(15)
	if h.running != 2 {
		t.Fatalf("after restore running = %d, want 2", h.running)
	}
}

// TestCapacityNeverExceedsCaps: a queue's usage stays at or below
// MaxShare × total slots at every grant instant.
func TestCapacityNeverExceedsCaps(t *testing.T) {
	pol, err := NewCapacityPolicy([]Queue{
		{Name: "prod", Share: 0.25, MaxShare: 0.25}, // hard-capped at its share
		{Name: "batch", Share: 0.75, MaxShare: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, rm, ij := muxFixture(8, pol) // 16 slots; prod cap = 4
	var handles []*JobHandle
	for q := 0; q < 2; q++ {
		for j := 0; j < 2; j++ {
			f := &fakeJob{eng: eng, rm: rm, demand: -1, hold: 5}
			handles = append(handles, ij.Submit("job", q, f))
		}
	}
	check := func() {
		usage := [2]int{}
		for _, h := range handles {
			usage[h.Queue] += h.running
		}
		for q, u := range usage {
			if cap := pol.Cap(q, rm.TotalSlots()); u > cap {
				t.Fatalf("t=%v: queue %d usage %d exceeds cap %d", eng.Now(), q, u, cap)
			}
		}
	}
	for _, h := range handles {
		// Re-check the invariant on every single grant.
		fj := h.sched.(*fakeJob)
		fj.onGrant = check
	}
	rm.Start()
	eng.RunUntil(100)
	usage := 0
	for _, h := range handles[:2] {
		usage += h.running
	}
	if usage != 4 {
		t.Fatalf("prod queue steady-state usage = %d, want exactly its cap 4", usage)
	}
}

// TestCapacityElasticBorrow: when one queue is idle, the other grows past
// its guaranteed share up to its MaxShare (here: the whole cluster).
func TestCapacityElasticBorrow(t *testing.T) {
	pol, err := NewCapacityPolicy([]Queue{
		{Name: "a", Share: 0.25, MaxShare: 1.0},
		{Name: "b", Share: 0.75, MaxShare: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, rm, ij := muxFixture(6, pol) // 12 slots; a's guaranteed share is 3
	f := &fakeJob{eng: eng, rm: rm, demand: -1, hold: 1e9}
	h := ij.Submit("greedy", 0, f)
	rm.Start()
	eng.RunUntil(30)
	if h.running != 12 {
		t.Fatalf("lone job holds %d slots, want all 12 via elastic borrow", h.running)
	}
}

// TestCapacityReclaimAfterBorrow: a borrowing queue naturally shrinks
// back as its tasks finish and a newly busy queue is preferred for every
// freed slot (underserved-first ordering).
func TestCapacityReclaimAfterBorrow(t *testing.T) {
	pol, err := NewCapacityPolicy([]Queue{
		{Name: "a", Share: 0.5, MaxShare: 1.0},
		{Name: "b", Share: 0.5, MaxShare: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, rm, ij := muxFixture(4, pol) // 8 slots; each queue's share is 4
	borrower := &fakeJob{eng: eng, rm: rm, demand: -1, hold: 4}
	hb := ij.Submit("borrower", 0, borrower)
	rm.Start()
	var hl *JobHandle
	eng.At(20, "late-arrival", func() {
		// The late queue wants exactly its share and holds it forever.
		late := &fakeJob{eng: eng, rm: rm, demand: 4, hold: 1e9}
		hl = ij.Submit("late", 1, late)
	})
	eng.At(19, "check-borrowed", func() {
		if hb.running != 8 {
			t.Errorf("t=19: borrower holds %d, want all 8", hb.running)
		}
	})
	eng.At(60, "check-reclaimed", func() {
		// Underserved-first ordering hands every freed slot to the late
		// queue until it reaches its share; the borrower churns on at
		// most the remainder (less heartbeat re-offer latency).
		if hl.running != 4 {
			t.Errorf("t=60: late queue holds %d, want its full share 4", hl.running)
		}
		if hb.running > 4 {
			t.Errorf("t=60: borrower still holds %d > 4 after reclaim", hb.running)
		}
		if bf := borrower.granted; bf == 0 {
			t.Error("borrower never ran")
		}
	})
	eng.RunUntil(70)
}

// TestRetiredJobGetsNoOffers: a retired job's scheduler is never
// consulted again, and the slots it frees flow to the remaining jobs.
func TestRetiredJobGetsNoOffers(t *testing.T) {
	eng, rm, ij := muxFixture(2, FIFOPolicy{}) // 4 slots
	first := &fakeJob{eng: eng, rm: rm, demand: -1, hold: 3}
	second := &fakeJob{eng: eng, rm: rm, demand: -1, hold: 3}
	h1 := ij.Submit("first", 0, first)
	ij.Submit("second", 0, second)
	rm.Start()
	eng.At(10, "retire-first", func() {
		ij.Retire(h1)
		first.demand = 0
	})
	eng.At(30, "check", func() {
		if got := second.granted; got == 0 {
			t.Error("second job never ran after first retired")
		}
		if h1.running != 0 {
			t.Errorf("retired job still holds %d containers", h1.running)
		}
	})
	eng.RunUntil(35)
	if first.granted == 0 || second.granted == 0 {
		t.Fatalf("grants first=%d second=%d, both must run", first.granted, second.granted)
	}
}

// TestGrantOutsideOfferPanics: acquiring capacity outside the offer
// protocol must trip the attribution panic.
func TestGrantOutsideOfferPanics(t *testing.T) {
	eng, rm, ij := muxFixture(1, FIFOPolicy{})
	ij.Submit("job", 0, &fakeJob{eng: eng, rm: rm, demand: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("rogue Acquire did not panic")
		}
	}()
	rm.Acquire(rm.cluster.Node(0))
}

// TestQueueWait measures submission-to-first-grant delay on a saturated
// cluster.
func TestQueueWait(t *testing.T) {
	eng, rm, ij := muxFixture(1, FIFOPolicy{}) // 2 slots
	hog := &fakeJob{eng: eng, rm: rm, demand: 2, hold: 50}
	h0 := ij.Submit("hog", 0, hog)
	rm.Start()
	var h1 *JobHandle
	eng.At(10, "submit-waiter", func() {
		h1 = ij.Submit("waiter", 0, &fakeJob{eng: eng, rm: rm, demand: 1, hold: 1})
	})
	eng.Run()
	if h0.QueueWait() != 0 {
		t.Fatalf("hog queue wait = %v, want 0 (cluster idle at submit)", h0.QueueWait())
	}
	// Hog's tasks start at t=0 and t=1 (heartbeat pacing), finishing at
	// 50 and 51; the waiter submitted at 10 must wait for the first free
	// slot plus the re-offer heartbeat.
	if w := h1.QueueWait(); w < 40 {
		t.Fatalf("waiter queue wait = %v, want ≥ 40 (blocked behind hog)", w)
	}
}

// BenchmarkInterJobSweep is one Poke over 200 free nodes shared by 40
// jobs, 36 of them idle: the offers skip the idle jobs and consult the
// other 4, which decline.
func BenchmarkInterJobSweep(b *testing.B) {
	eng, rm, ij := muxFixture(200, FairPolicy{})
	for i := 0; i < 40; i++ {
		if i%10 == 0 {
			ij.Submit("active", 0, &fakeJob{eng: eng, rm: rm})
		} else {
			ij.Submit("idle", 0, &demandJob{rm: rm})
		}
	}
	rm.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm.Poke()
	}
	if rm.TotalFree() != rm.TotalSlots() {
		b.Fatal("a declining job took a slot")
	}
}
