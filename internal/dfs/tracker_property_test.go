package dfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
)

// trackerOp is one step of a random Tracker workload.
type trackerOp struct {
	kind int // 0 = Take, 1 = TakeRemote, 2 = Restore
	node cluster.NodeID
	n    int
}

func randomOps(rng *rand.Rand, nodes, count int) []trackerOp {
	ops := make([]trackerOp, count)
	for i := range ops {
		ops[i] = trackerOp{
			kind: rng.Intn(3),
			node: cluster.NodeID(rng.Intn(nodes)),
			n:    1 + rng.Intn(9),
		}
	}
	return ops
}

// applyOps runs an op sequence against a fresh store+tracker and returns
// the concatenated handout transcript, validating model invariants along
// the way. The model is the set of outstanding (handed-out, not yet
// restored) BUs plus the brute-force per-node remaining count.
func applyOps(t *testing.T, ops []trackerOp, nodes, repl int) []BUID {
	t.Helper()
	s := NewStore(cluster.Homogeneous(nodes), repl, randutil.New(1))
	if _, err := s.AddFile("a", 96*BUSize); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(s, "a")
	if err != nil {
		t.Fatal(err)
	}
	total := len(tr.remaining)
	outstanding := map[BUID]bool{}
	var restorable []BUID
	var transcript []BUID

	record := func(bus []BUID) {
		for _, id := range bus {
			if outstanding[id] {
				t.Fatalf("BU %d handed out while already outstanding", id)
			}
			outstanding[id] = true
			restorable = append(restorable, id)
		}
		transcript = append(transcript, bus...)
	}

	// Ascending order is guaranteed per single-node chunk (the local part
	// of a Take); remote fills concatenate per-node chunks.
	checkAscending := func(bus []BUID) {
		for k := 1; k < len(bus); k++ {
			if bus[k-1] >= bus[k] {
				t.Fatalf("local handout not in ascending BUID order: %v", bus)
			}
		}
	}

	for _, op := range ops {
		switch op.kind {
		case 0:
			bus, local := tr.Take(op.node, op.n)
			for _, id := range bus[:local] {
				if !s.HasReplica(op.node, id) {
					t.Fatalf("Take reported BU %d local to node %d without a replica", id, op.node)
				}
			}
			checkAscending(bus[:local])
			record(bus)
		case 1:
			record(tr.TakeRemote(op.n))
		case 2:
			if len(restorable) == 0 {
				continue
			}
			k := op.n
			if k > len(restorable) {
				k = len(restorable)
			}
			back := restorable[len(restorable)-k:]
			restorable = restorable[:len(restorable)-k]
			for _, id := range back {
				delete(outstanding, id)
			}
			tr.Restore(back)
		}
		if got, want := tr.Remaining(), total-len(outstanding); got != want {
			t.Fatalf("Remaining() = %d, model says %d", got, want)
		}
		// Spot-check the live count per node against a brute-force recount.
		probe := op.node
		count := 0
		for _, id := range fileBUs(t, s) {
			if !outstanding[id] && s.HasReplica(probe, id) {
				count++
			}
		}
		if got := liveOn(tr, probe); got != count {
			t.Fatalf("byNode[%d].live = %d, brute force says %d", probe, got, count)
		}
	}
	return transcript
}

func fileBUs(t *testing.T, s *Store) []BUID {
	t.Helper()
	f, ok := s.File("a")
	if !ok {
		t.Fatal("file vanished")
	}
	return f.BUs
}

// Property: under random interleavings of Take, TakeRemote and Restore the
// tracker hands every BU out at most once per residence in the pool, keeps
// Remaining() and the per-node live counts consistent with a brute-force
// model, returns every batch in ascending BUID order, and is fully
// deterministic — the same op sequence replayed against a fresh tracker
// yields a byte-identical handout transcript.
func TestTrackerPropertyInterleavings(t *testing.T) {
	f := func(seed int64) bool {
		const nodes, repl = 9, 3
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, nodes, 120)
		first := applyOps(t, ops, nodes, repl)
		second := applyOps(t, ops, nodes, repl)
		if len(first) != len(second) {
			t.Fatalf("replay diverged: %d vs %d handouts", len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("replay diverged at handout %d: %d vs %d", i, first[i], second[i])
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
