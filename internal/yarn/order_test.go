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

func (*recorder) Bound(dst []cluster.NodeID) ([]cluster.NodeID, bool) { return dst[:0], false }

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
	cases := []struct {
		name string
		fair bool
		ref  func(active []*JobHandle) []*JobHandle
	}{
		{"fifo", false, func(active []*JobHandle) []*JobHandle { return active }},
		{"fair", true, refFairOrder},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 25; seed++ {
				clus := cluster.Homogeneous(5)
				spare := clus.AddSpares(1, cluster.NodeSpec{Slots: 4})[0]
				eng := sim.New()
				rm := NewRM(eng, clus)
				ij := NewInterJob(eng, rm, c.fair)
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
						rec.h = ij.Submit("job", rec)
						handles = append(handles, rec.h)
					case r < 3:
						ij.Retire(handles[rng.Intn(len(handles))]) // may already be retired
					case r < 4:
						if clus.Node(spare).Offline() {
							clus.JoinNode(spare, eng.Now())
							rm.NodeJoined(spare)
						} else {
							rm.NodeReleased(spare)
							clus.ReleaseNode(spare, eng.Now())
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
					want := indices(c.ref(live()))
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
	for _, fair := range []bool{false, true} {
		_, rm, ij := muxFixture(100, fair)
		var handles []*JobHandle
		for i := 0; i < 40; i++ {
			handles = append(handles, ij.Submit("job", &fakeJob{demand: 0}))
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
			t.Errorf("fair=%v: %.1f allocs per declined offer, want 0", fair, allocs)
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
	cases := []struct {
		name string
		fair bool
		want []int // jobs consulted by the first offer
	}{
		// The outer offer walks n b c, and so does the nested one: FIFO
		// ignores b's new count.
		{"fifo", false, []int{0, 0, 1, 2, 1, 2}},
		// All idle: the outer offer walks n b c. With b busy the nested
		// one walks n c b.
		{"fair", true, []int{0, 0, 2, 1, 1, 2}},
	}
	for _, c := range cases {
		_, rm, ij := muxFixture(5, c.fair)
		node := rm.cluster.Node(0)
		var log []*JobHandle
		n := &nester{recorder: recorder{log: &log}, ij: ij}
		n.h = ij.Submit("n", n)
		b := &recorder{log: &log}
		b.h = ij.Submit("b", b)
		cj := &recorder{log: &log}
		cj.h = ij.Submit("c", cj)

		n.before = func() { ij.move(b.h, 3) }
		n.after = func(*cluster.Node) bool { return false }
		if ij.OnSlotFree(node) {
			t.Fatalf("%s: an offer every job declined placed", c.name)
		}
		if got := indices(log); !slices.Equal(got, c.want) {
			t.Errorf("%s: consulted %v, want %v", c.name, got, c.want)
		}

		n.before = func() {}
		n.after = func(node *cluster.Node) bool {
			rm.Acquire(node, new(Container))
			return true
		}
		was := n.h.running
		if !ij.OnSlotFree(node) {
			t.Fatalf("%s: the nester's grant did not place", c.name)
		}
		if got := n.h.running; got != was+1 {
			t.Errorf("%s: nester runs %d containers after its grant, want %d", c.name, got, was+1)
		}
	}
}
