package dfs

import (
	"testing"
	"testing/quick"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
)

func TestTrackerExactlyOnce(t *testing.T) {
	s := newTestStore(t, 6, 3)
	f, _ := s.AddFile("a", 40*BUSize)
	tr, err := NewTracker(s, "a")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Total() != 40 || tr.Remaining() != 40 {
		t.Fatalf("total=%d remaining=%d, want 40/40", tr.Total(), tr.Remaining())
	}
	seen := map[BUID]bool{}
	node := cluster.NodeID(0)
	for tr.Remaining() > 0 {
		bus, _ := tr.Take(node, 7)
		if len(bus) == 0 {
			t.Fatal("Take returned nothing with BUs remaining")
		}
		for _, id := range bus {
			if seen[id] {
				t.Fatalf("BU %d handed out twice", id)
			}
			seen[id] = true
		}
		node = (node + 1) % 6
	}
	if len(seen) != len(f.BUs) {
		t.Fatalf("took %d BUs, want %d", len(seen), len(f.BUs))
	}
}

func TestTrackerMissingFile(t *testing.T) {
	s := newTestStore(t, 3, 2)
	if _, err := NewTracker(s, "nope"); err == nil {
		t.Fatal("NewTracker on missing file succeeded")
	}
}

func TestTakeLocalOnlyReturnsLocal(t *testing.T) {
	s := newTestStore(t, 8, 2)
	s.AddFile("a", 64*BUSize)
	tr, _ := NewTracker(s, "a")
	node := cluster.NodeID(3)
	bus := tr.TakeLocal(node, 1000)
	for _, id := range bus {
		if !s.HasReplica(node, id) {
			t.Fatalf("TakeLocal returned non-local BU %d", id)
		}
	}
	if len(bus) != s.nodeLoad[node] {
		t.Fatalf("TakeLocal returned %d, node stores %d", len(bus), s.nodeLoad[node])
	}
	if tr.byNode[node].live != 0 {
		t.Fatalf("byNode[node].live = %d after draining", tr.byNode[node].live)
	}
}

func TestTakePrefersLocal(t *testing.T) {
	s := newTestStore(t, 8, 2)
	s.AddFile("a", 64*BUSize)
	tr, _ := NewTracker(s, "a")
	node := cluster.NodeID(2)
	localAvail := tr.byNode[node].live
	if localAvail < 2 {
		t.Skip("placement left node with too few local BUs")
	}
	bus, local := tr.Take(node, 2)
	if local != 2 || len(bus) != 2 {
		t.Fatalf("Take(2) local=%d len=%d, want all-local", local, len(bus))
	}
	for _, id := range bus {
		if !s.HasReplica(node, id) {
			t.Fatal("claimed local BU is not local")
		}
	}
}

func TestTakeFallsBackRemote(t *testing.T) {
	s := newTestStore(t, 8, 2)
	s.AddFile("a", 32*BUSize)
	tr, _ := NewTracker(s, "a")
	node := cluster.NodeID(0)
	localAvail := tr.byNode[node].live
	bus, local := tr.Take(node, localAvail+5)
	if local != localAvail {
		t.Fatalf("local part = %d, want %d", local, localAvail)
	}
	if len(bus) != localAvail+5 {
		t.Fatalf("took %d BUs, want %d", len(bus), localAvail+5)
	}
}

func TestTakeRemoteRichestHeuristic(t *testing.T) {
	// With replication 1 each BU lives on exactly one node, so the richest
	// node is unambiguous and TakeRemote must drain it first.
	s := newTestStore(t, 4, 1)
	s.AddFile("a", 16*BUSize)
	tr, _ := NewTracker(s, "a")

	richest, best := cluster.NodeID(-1), -1
	for _, n := range s.Cluster().Nodes {
		if c := tr.byNode[n.ID].live; c > best {
			best, richest = c, n.ID
		}
	}
	bus := tr.TakeRemote(1)
	if len(bus) != 1 {
		t.Fatalf("TakeRemote(1) returned %d BUs", len(bus))
	}
	if !s.HasReplica(richest, bus[0]) {
		t.Fatalf("TakeRemote did not pick from richest node %d", richest)
	}
}

func TestTakeZeroAndExhausted(t *testing.T) {
	s := newTestStore(t, 4, 2)
	s.AddFile("a", 4*BUSize)
	tr, _ := NewTracker(s, "a")
	if got := tr.TakeLocal(0, 0); got != nil {
		t.Fatalf("TakeLocal n=0 returned %v", got)
	}
	tr.Take(0, 100)
	if tr.Remaining() != 0 {
		t.Fatalf("remaining = %d after draining", tr.Remaining())
	}
	if bus, _ := tr.Take(1, 5); len(bus) != 0 {
		t.Fatalf("Take on exhausted tracker returned %v", bus)
	}
}

// Property: no matter the take pattern, each BU is delivered exactly once
// and the tracker drains completely.
func TestPropertyTrackerExactlyOnce(t *testing.T) {
	f := func(seed int64, sizes []uint8) bool {
		nodes := 6
		s := NewStore(cluster.Homogeneous(nodes), 3, randutil.New(seed))
		file, err := s.AddFile("f", 50*BUSize)
		if err != nil {
			return false
		}
		tr, err := NewTracker(s, "f")
		if err != nil {
			return false
		}
		rng := randutil.New(seed)
		seen := map[BUID]bool{}
		i := 0
		for tr.Remaining() > 0 {
			n := 1
			if len(sizes) > 0 {
				n = int(sizes[i%len(sizes)]%8) + 1
			}
			node := cluster.NodeID(rng.Intn(nodes))
			bus, local := tr.Take(node, n)
			if local > len(bus) || len(bus) > n {
				return false
			}
			if len(bus) == 0 {
				return false // must make progress while BUs remain
			}
			for _, id := range bus {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
			i++
		}
		return len(seen) == len(file.BUs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
