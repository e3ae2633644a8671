package dfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
)

func newTestStore(t *testing.T, nodes, repl int) *Store {
	t.Helper()
	return NewStore(cluster.Homogeneous(nodes), repl, randutil.New(1))
}

func TestAddFileBUAccounting(t *testing.T) {
	s := newTestStore(t, 6, 3)
	const size = 100 * 1024 * 1024 // 100 MB → 12 BUs 8MB + last 4MB
	f, err := s.AddFile("a", size)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.BUs) != 13 {
		t.Fatalf("BU count = %d, want 13", len(f.BUs))
	}
	var total int64
	for i, id := range f.BUs {
		bu := s.Block(id)
		if bu.File != "a" || bu.Index != i {
			t.Fatalf("BU %d metadata wrong: %+v", id, bu)
		}
		if bu.Size > BUSize || bu.Size <= 0 {
			t.Fatalf("BU %d size %d out of range", id, bu.Size)
		}
		total += bu.Size
	}
	if total != size {
		t.Fatalf("BU sizes sum to %d, want %d", total, size)
	}
}

func TestAddFileErrors(t *testing.T) {
	s := newTestStore(t, 3, 3)
	if _, err := s.AddFile("x", 0); err == nil {
		t.Error("zero-size file accepted")
	}
	if _, err := s.AddFile("a", BUSize); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddFile("a", BUSize); err == nil {
		t.Error("duplicate file name accepted")
	}
	if _, err := s.AddFileWithData("empty", nil); err == nil {
		t.Error("empty data file accepted")
	}
}

func TestReplicationInvariant(t *testing.T) {
	s := newTestStore(t, 8, 3)
	f, _ := s.AddFile("a", 64*BUSize)
	for _, id := range f.BUs {
		nodes := s.NodesFor(id)
		if len(nodes) != 3 {
			t.Fatalf("BU %d has %d replicas, want 3", id, len(nodes))
		}
		seen := map[cluster.NodeID]bool{}
		for _, nid := range nodes {
			if seen[nid] {
				t.Fatalf("BU %d replicated twice on node %d", id, nid)
			}
			seen[nid] = true
			if !s.HasReplica(nid, id) {
				t.Fatalf("index inconsistency: node %d missing BU %d", nid, id)
			}
		}
	}
}

func TestReplicationCappedAtClusterSize(t *testing.T) {
	s := newTestStore(t, 2, 3)
	if s.Replication() != 2 {
		t.Fatalf("replication = %d, want 2 (capped)", s.Replication())
	}
	f, _ := s.AddFile("a", 4*BUSize)
	for _, id := range f.BUs {
		if len(s.NodesFor(id)) != 2 {
			t.Fatalf("BU %d has %d replicas", id, len(s.NodesFor(id)))
		}
	}
}

func TestGroupCoPlacement(t *testing.T) {
	s := newTestStore(t, 10, 3)
	f, _ := s.AddFile("a", int64(3*GroupBUs)*BUSize)
	for g := 0; g < 3; g++ {
		first := s.NodesFor(f.BUs[g*GroupBUs])
		for i := 1; i < GroupBUs; i++ {
			got := s.NodesFor(f.BUs[g*GroupBUs+i])
			if len(got) != len(first) {
				t.Fatalf("group %d BU %d replica count differs", g, i)
			}
			for k := range got {
				if got[k] != first[k] {
					t.Fatalf("group %d not co-placed: %v vs %v", g, first, got)
				}
			}
		}
	}
}

func TestPlacementBalance(t *testing.T) {
	s := newTestStore(t, 6, 3)
	s.AddFile("a", int64(20*GroupBUs)*BUSize)
	min, max := 1<<62, 0
	for _, n := range s.Cluster().Nodes {
		c := s.nodeLoad[n.ID]
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	// Balanced placement: spread should be within one placement group.
	if max-min > GroupBUs {
		t.Fatalf("placement imbalance: min=%d max=%d", min, max)
	}
}

func TestSplits64And128(t *testing.T) {
	s := newTestStore(t, 8, 3)
	s.AddFile("a", int64(4*GroupBUs)*BUSize) // 512 MB

	for _, tc := range []struct {
		sizeBUs, wantSplits int
	}{{8, 8}, {16, 4}, {32, 2}} {
		splits, err := s.Splits("a", tc.sizeBUs)
		if err != nil {
			t.Fatal(err)
		}
		if len(splits) != tc.wantSplits {
			t.Fatalf("size %d: %d splits, want %d", tc.sizeBUs, len(splits), tc.wantSplits)
		}
		for _, sp := range splits {
			// Splits within one placement group are fully co-hosted;
			// larger splits may span groups with disjoint replica sets.
			if tc.sizeBUs <= GroupBUs && len(sp.Hosts) != 3 {
				t.Fatalf("split %d has %d co-hosts, want 3 (co-placement broken)", sp.Index, len(sp.Hosts))
			}
			if sp.Size != int64(len(sp.BUs))*BUSize {
				t.Fatalf("split size %d inconsistent", sp.Size)
			}
		}
	}
}

func TestSplitsErrors(t *testing.T) {
	s := newTestStore(t, 4, 3)
	s.AddFile("a", 16*BUSize)
	if _, err := s.Splits("missing", 8); err == nil {
		t.Error("Splits on missing file succeeded")
	}
	if _, err := s.Splits("a", 0); err == nil {
		t.Error("zero split size accepted")
	}
	if _, err := s.Splits("a", 3); err == nil {
		t.Error("split size not dividing group accepted")
	}
	if _, err := s.Splits("a", 24); err == nil {
		t.Error("split size not multiple of group accepted")
	}
}

func TestRealDataRoundTrip(t *testing.T) {
	s := newTestStore(t, 4, 2)
	data := bytes.Repeat([]byte("hello flexmap "), 1_200_000) // ~16 MB
	f, err := s.AddFileWithData("real", data)
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt []byte
	for _, id := range f.BUs {
		c := s.Content(id)
		if c == nil {
			t.Fatalf("BU %d has no content", id)
		}
		rebuilt = append(rebuilt, c...)
	}
	if !bytes.Equal(rebuilt, data) {
		t.Fatal("content split/merge round trip mismatch")
	}
}

func TestModeledFileHasNoContent(t *testing.T) {
	s := newTestStore(t, 4, 2)
	f, _ := s.AddFile("m", 2*BUSize)
	if s.Content(f.BUs[0]) != nil {
		t.Fatal("modeled file unexpectedly has content")
	}
}

func TestUnknownBlockPanics(t *testing.T) {
	s := newTestStore(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("Block(99) did not panic")
		}
	}()
	s.Block(99)
}

// Property: for random cluster/replication/file sizes, every BU has
// exactly min(R, nodes) replicas on distinct nodes and both indices agree.
func TestPropertyReplicaInvariant(t *testing.T) {
	f := func(nodesRaw, replRaw, busRaw uint8, seed int64) bool {
		nodes := int(nodesRaw%12) + 2
		repl := int(replRaw%4) + 1
		bus := int64(busRaw%64) + 1
		s := NewStore(cluster.Homogeneous(nodes), repl, randutil.New(seed))
		file, err := s.AddFile("f", bus*BUSize)
		if err != nil {
			return false
		}
		wantRepl := repl
		if wantRepl > nodes {
			wantRepl = nodes
		}
		for _, id := range file.BUs {
			reps := s.NodesFor(id)
			if len(reps) != wantRepl {
				return false
			}
			seen := map[cluster.NodeID]bool{}
			for _, nid := range reps {
				if seen[nid] || !s.HasReplica(nid, id) {
					return false
				}
				seen[nid] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestApplySkewWeights(t *testing.T) {
	s := newTestStore(t, 4, 2)
	f, _ := s.AddFile("a", 64*BUSize)
	// Before skew: uniform.
	if s.Weight(f.BUs[0]) != 1.0 || s.MeanWeight(f.BUs) != 1.0 {
		t.Fatal("weights should default to 1.0")
	}
	s.ApplySkew(randutil.New(5), 0.8)
	varied := false
	sum := 0.0
	for _, id := range f.BUs {
		w := s.Weight(id)
		if w <= 0 {
			t.Fatalf("non-positive weight %v", w)
		}
		if w != 1.0 {
			varied = true
		}
		sum += w
	}
	if !varied {
		t.Fatal("skew produced uniform weights")
	}
	// Mean-normalized: the sample mean should be near 1.
	mean := sum / float64(len(f.BUs))
	if mean < 0.6 || mean > 1.6 {
		t.Fatalf("weight mean = %v, want ≈1", mean)
	}
	if got := s.MeanWeight(f.BUs); got != mean {
		t.Fatalf("MeanWeight = %v, want %v", got, mean)
	}
	// Zero sigma is a no-op.
	s2 := newTestStore(t, 4, 2)
	s2.AddFile("a", 4*BUSize)
	s2.ApplySkew(randutil.New(5), 0)
	if s2.Weight(0) != 1.0 {
		t.Fatal("zero-sigma skew changed weights")
	}
}

func TestMeanWeightEmpty(t *testing.T) {
	s := newTestStore(t, 2, 1)
	if s.MeanWeight(nil) != 1.0 {
		t.Fatal("empty MeanWeight should be 1")
	}
}
