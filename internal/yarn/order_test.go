package yarn

import (
	"slices"
	"sort"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
)

// refFairOrder is the fair ordering as first written: a fresh copy of the
// submission-ordered active list, stable-sorted by running count.
func refFairOrder(active []*JobHandle) []*JobHandle {
	out := append([]*JobHandle(nil), active...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].running < out[j].running })
	return out
}

// refCapacityOrder is the capacity ordering as first written, with fresh
// usage, queue-rank and output slices on every call.
func refCapacityOrder(p *CapacityPolicy, active []*JobHandle, totalSlots int) []*JobHandle {
	usage := make([]int, len(p.Queues))
	for _, h := range active {
		usage[h.Queue] += h.running
	}
	order := make([]int, len(p.Queues))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		qa, qb := order[a], order[b]
		return float64(usage[qa])/p.Queues[qa].Share < float64(usage[qb])/p.Queues[qb].Share
	})
	out := make([]*JobHandle, 0, len(active))
	for _, q := range order {
		if usage[q] >= p.Cap(q, totalSlots) {
			continue
		}
		for _, h := range active {
			if h.Queue == q {
				out = append(out, h)
			}
		}
	}
	return out
}

// recorder is an AM that declines every offer and logs that it was
// consulted, so one offer over recorders reveals the policy's full order.
type recorder struct {
	h   *JobHandle
	log *[]*JobHandle
}

func (r *recorder) OnSlotFree(*cluster.Node) bool {
	*r.log = append(*r.log, r.h)
	return false
}

func (r *recorder) Idle() bool { return false }

func indices(hs []*JobHandle) []int {
	out := make([]int, len(hs))
	for i, h := range hs {
		out[i] = h.Index
	}
	return out
}

// TestPolicyOrderMatchesReference drives random sequences of Submit,
// Retire (including a second Retire), ±1 running-count moves, elastic
// joins and releases that move the slot total, and steps that move
// nothing, through an InterJob, and checks that every offer consults the
// jobs in exactly the reference order, whether it re-ranks them or
// reuses the cached order.
func TestPolicyOrderMatchesReference(t *testing.T) {
	queues := []Queue{
		{Name: "a", Share: 0.2, MaxShare: 0.4},
		{Name: "b", Share: 0.3},
		{Name: "c", Share: 0.5, MaxShare: 0.6},
	}
	cases := []struct {
		name string
		mk   func() (Policy, func(active []*JobHandle, totalSlots int) []*JobHandle)
	}{
		{"fifo", func() (Policy, func([]*JobHandle, int) []*JobHandle) {
			return FIFOPolicy{}, func(active []*JobHandle, _ int) []*JobHandle { return active }
		}},
		{"fair", func() (Policy, func([]*JobHandle, int) []*JobHandle) {
			return FairPolicy{}, func(active []*JobHandle, _ int) []*JobHandle { return refFairOrder(active) }
		}},
		{"capacity", func() (Policy, func([]*JobHandle, int) []*JobHandle) {
			p, err := NewCapacityPolicy(queues)
			if err != nil {
				t.Fatal(err)
			}
			return p, func(active []*JobHandle, total int) []*JobHandle { return refCapacityOrder(p, active, total) }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 25; seed++ {
				pol, ref := c.mk()
				clus := cluster.Homogeneous(5) // 10 slots: capacity caps bind
				spare := clus.AddSpares(1, cluster.NodeSpec{Slots: 4})[0]
				eng := sim.New()
				rm := NewRM(eng, clus)
				ij := NewInterJob(eng, rm, pol)
				node := clus.Node(0)
				rng := randutil.New(seed)
				var handles, log []*JobHandle
				live := func() (active []*JobHandle) {
					for _, h := range handles {
						if !h.done {
							active = append(active, h)
						}
					}
					return active
				}
				for step := 0; step < 300; step++ {
					active := live()
					switch r := rng.Intn(12); {
					case r < 2 || len(active) == 0:
						rec := &recorder{log: &log}
						rec.h = ij.Submit("job", rng.Intn(len(queues)), rec)
						handles = append(handles, rec.h)
					case r < 3:
						ij.Retire(handles[rng.Intn(len(handles))]) // may already be retired
					case r < 4:
						if clus.Node(spare).Offline() {
							clus.JoinNode(spare)
							rm.NodeJoined(spare)
						} else {
							rm.NodeReleased(spare)
							clus.ReleaseNode(spare)
						}
					case r < 5:
						// Nothing moves; the next offer reuses the cached order.
					default:
						h := active[rng.Intn(len(active))]
						if h.running == 0 || rng.Intn(2) == 0 {
							ij.move(h, 1)
						} else {
							ij.move(h, -1)
						}
					}
					if rng.Intn(3) == 0 {
						continue // let several moves land between offers
					}
					want := indices(ref(live(), rm.TotalSlots()))
					log = log[:0]
					ij.OnSlotFree(node)
					if got := indices(log); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d: consulted %v, reference %v", seed, step, got, want)
					}
				}
			}
		})
	}
}

// TestOfferAllocatesNothing: an offer that every job declines allocates
// nothing under any policy, with one running count moving per offer as a
// grant or release between offers moves it.
func TestOfferAllocatesNothing(t *testing.T) {
	capacity, err := NewCapacityPolicy([]Queue{
		{Name: "a", Share: 0.25, MaxShare: 0.5},
		{Name: "b", Share: 0.25},
		{Name: "c", Share: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{FIFOPolicy{}, FairPolicy{}, capacity} {
		_, rm, ij := muxFixture(100, pol)
		var handles []*JobHandle
		for i := 0; i < 40; i++ {
			handles = append(handles, ij.Submit("job", i%3, &fakeJob{demand: 0}))
		}
		node := rm.cluster.Node(0)
		k := 0
		allocs := testing.AllocsPerRun(200, func() {
			h := handles[(k*7)%len(handles)]
			ij.move(h, (h.running+1)%4-h.running)
			k++
			ij.OnSlotFree(node)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per declined offer, want 0", pol.Name(), allocs)
		}
	}
}

// nester is a recording AM that, unless already nested, runs before,
// then offers the slot to the multiplexer again from inside its own
// offer, as SkewTune does when it queues repartitioned work, and answers
// with after.
type nester struct {
	recorder
	ij      *InterJob
	nesting bool
	before  func()
	after   func(*cluster.Node) bool
}

func (n *nester) OnSlotFree(node *cluster.Node) bool {
	n.recorder.OnSlotFree(node)
	if n.nesting {
		return false
	}
	n.nesting = true
	n.before()
	n.ij.OnSlotFree(node)
	n.nesting = false
	return n.after(node)
}

// TestNestedOffer: an offer made from inside another orders the jobs
// afresh, the outer offer walks on in the order it started with, and a
// grant made after the nested offer returns is charged to the outer
// offer's job.
func TestNestedOffer(t *testing.T) {
	capacity, err := NewCapacityPolicy([]Queue{{Name: "a", Share: 0.5}, {Name: "b", Share: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pol    Policy
		cQueue int   // job c's queue; jobs n and b are in queue 0
		bump   int   // the job whose running count the nester raises by 3
		want   []int // jobs consulted by the first offer
	}{
		// All idle: the outer offer walks n b c. With b busy the nested
		// one walks n c b.
		{FairPolicy{}, 0, 1, []int{0, 0, 2, 1, 1, 2}},
		// Both queues idle: the outer offer walks n b c. With n busy,
		// queue 0 is the more loaded and the nested one walks c n b.
		{capacity, 1, 0, []int{0, 2, 0, 1, 1, 2}},
	}
	for _, c := range cases {
		_, rm, ij := muxFixture(5, c.pol) // 10 slots: no capacity cap binds
		node := rm.cluster.Node(0)
		var log []*JobHandle
		n := &nester{recorder: recorder{log: &log}, ij: ij}
		n.h = ij.Submit("n", 0, n)
		b := &recorder{log: &log}
		b.h = ij.Submit("b", 0, b)
		cj := &recorder{log: &log}
		cj.h = ij.Submit("c", c.cQueue, cj)
		hs := []*JobHandle{n.h, b.h, cj.h}

		n.before = func() { ij.move(hs[c.bump], 3) }
		n.after = func(*cluster.Node) bool { return false }
		if ij.OnSlotFree(node) {
			t.Fatalf("%s: an offer every job declined placed", c.pol.Name())
		}
		if got := indices(log); !slices.Equal(got, c.want) {
			t.Errorf("%s: consulted %v, want %v", c.pol.Name(), got, c.want)
		}

		n.before = func() {}
		n.after = func(node *cluster.Node) bool {
			rm.Acquire(node)
			return true
		}
		was := n.h.running
		if !ij.OnSlotFree(node) {
			t.Fatalf("%s: the nester's grant did not place", c.pol.Name())
		}
		if got := n.h.running; got != was+1 {
			t.Errorf("%s: nester runs %d containers after its grant, want %d", c.pol.Name(), got, was+1)
		}
	}
}
