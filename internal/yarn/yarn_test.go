package yarn

import (
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
)

// acceptN accepts the first n offers, tracking containers it acquired.
type acceptN struct {
	rm         *RM
	n          int
	containers []*Container
	offers     int
	acquiredAt []sim.Time
	eng        *sim.Engine
}

func (a *acceptN) OnSlotFree(node *cluster.Node) bool {
	a.offers++
	if len(a.containers) >= a.n {
		return false
	}
	c := new(Container)
	a.rm.Acquire(node, c)
	a.containers = append(a.containers, c)
	if a.eng != nil {
		a.acquiredAt = append(a.acquiredAt, a.eng.Now())
	}
	return true
}

func (*acceptN) Bound(dst []cluster.NodeID) ([]cluster.NodeID, bool) { return dst[:0], false }

func TestStartFillsAllSlotsOverHeartbeats(t *testing.T) {
	eng := sim.New()
	c := cluster.Homogeneous(3) // 3 nodes × 2 slots
	rm := NewRM(eng, c)
	s := &acceptN{rm: rm, n: 100, eng: eng}
	rm.SetScheduler(s)
	rm.Start()
	// First offer per node is immediate.
	if len(s.containers) != 3 {
		t.Fatalf("immediate grants = %d, want 3 (one per node)", len(s.containers))
	}
	eng.Run()
	if len(s.containers) != 6 {
		t.Fatalf("acquired %d containers, want 6", len(s.containers))
	}
	if rm.TotalFree() != 0 {
		t.Fatalf("TotalFree = %d, want 0", rm.TotalFree())
	}
	// Second slot per node arrives one AssignDelay later.
	for _, at := range s.acquiredAt[3:] {
		if at != sim.Time(AssignDelay) {
			t.Fatalf("second-wave grant at %v, want %v", at, AssignDelay)
		}
	}
}

func TestDeclinedSlotsStayIdle(t *testing.T) {
	eng := sim.New()
	c := cluster.Homogeneous(2)
	rm := NewRM(eng, c)
	s := &acceptN{rm: rm, n: 1}
	rm.SetScheduler(s)
	rm.Start()
	eng.Run()
	if len(s.containers) != 1 {
		t.Fatalf("acquired %d, want 1", len(s.containers))
	}
	if rm.TotalFree() != 3 {
		t.Fatalf("TotalFree = %d, want 3", rm.TotalFree())
	}
}

func TestReleaseReoffersAfterHeartbeat(t *testing.T) {
	eng := sim.New()
	c := cluster.Homogeneous(1) // 2 slots
	rm := NewRM(eng, c)
	s := &acceptN{rm: rm, n: 2, eng: eng}
	rm.SetScheduler(s)
	rm.Start()
	eng.Run()
	if len(s.containers) != 2 {
		t.Fatalf("acquired %d, want 2", len(s.containers))
	}
	s.n = 3 // allow one more acceptance
	releaseAt := eng.Now()
	s.containers[0].Release()
	eng.Run() // fire the re-offer event
	if len(s.containers) != 3 {
		t.Fatal("re-offer after release did not reach scheduler")
	}
	if got := s.acquiredAt[2]; got != releaseAt+sim.Time(AssignDelay) {
		t.Fatalf("re-offer at %v, want one heartbeat after release %v", got, releaseAt)
	}
	if !s.containers[0].Released() {
		t.Fatal("Released() = false")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	eng := sim.New()
	rm := NewRM(eng, cluster.Homogeneous(1))
	s := &acceptN{rm: rm, n: 1}
	rm.SetScheduler(s)
	rm.Start()
	ct := s.containers[0]
	ct.Release()
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	ct.Release()
}

func TestAcquireWithoutCapacityPanics(t *testing.T) {
	eng := sim.New()
	c := cluster.Homogeneous(1)
	rm := NewRM(eng, c)
	s := &acceptN{rm: rm, n: 2}
	rm.SetScheduler(s)
	rm.Start()
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Error("Acquire on full node did not panic")
		}
	}()
	rm.Acquire(c.Node(0), new(Container))
}

func TestStartWithoutSchedulerPanics(t *testing.T) {
	rm := NewRM(sim.New(), cluster.Homogeneous(1))
	defer func() {
		if recover() == nil {
			t.Error("Start without scheduler did not panic")
		}
	}()
	rm.Start()
}

func TestPokeBeforeStartIsNoop(t *testing.T) {
	eng := sim.New()
	rm := NewRM(eng, cluster.Homogeneous(1))
	s := &acceptN{rm: rm, n: 5}
	rm.SetScheduler(s)
	rm.Poke() // must not offer anything
	if s.offers != 0 {
		t.Fatalf("Poke before Start made %d offers", s.offers)
	}
}

func TestPokeReoffersIdleCapacity(t *testing.T) {
	eng := sim.New()
	rm := NewRM(eng, cluster.Homogeneous(2))
	s := &acceptN{rm: rm, n: 0} // decline everything initially
	rm.SetScheduler(s)
	rm.Start()
	eng.Run()
	if len(s.containers) != 0 {
		t.Fatal("scheduler accepted despite n=0")
	}
	s.n = 4
	rm.Poke()
	eng.Run()
	if len(s.containers) != 4 {
		t.Fatalf("Poke acquired %d, want 4", len(s.containers))
	}
}

func TestNoParallelOfferChains(t *testing.T) {
	// Poking repeatedly must not create overlapping heartbeat chains that
	// would offer faster than one grant per AssignDelay.
	eng := sim.New()
	rm := NewRM(eng, cluster.NewCluster("t", []cluster.NodeSpec{{Slots: 4}}))
	s := &acceptN{rm: rm, n: 100, eng: eng}
	rm.SetScheduler(s)
	rm.Start()
	rm.Poke()
	rm.Poke()
	eng.Run()
	if len(s.containers) != 4 {
		t.Fatalf("acquired %d, want 4", len(s.containers))
	}
	// Grants must be spaced ≥ AssignDelay apart (first is immediate).
	for i := 1; i < len(s.acquiredAt); i++ {
		if gap := s.acquiredAt[i] - s.acquiredAt[i-1]; gap < sim.Time(AssignDelay)-1e-9 {
			t.Fatalf("grants %d→%d only %v apart", i-1, i, gap)
		}
	}
}

func TestFreeSlotsPerNode(t *testing.T) {
	eng := sim.New()
	c := cluster.NewCluster("t", []cluster.NodeSpec{{Slots: 3}, {Slots: 1}})
	rm := NewRM(eng, c)
	if rm.FreeSlots(0) != 3 || rm.FreeSlots(1) != 1 {
		t.Fatalf("initial free slots wrong: %d/%d", rm.FreeSlots(0), rm.FreeSlots(1))
	}
}
