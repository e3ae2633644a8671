package dfs

import (
	"fmt"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
)

// benchTracker builds a store + tracker over a buCount-BU file on a
// homogeneous cluster, the shape the AM's dispatch loop sees.
func benchTracker(b *testing.B, nodes, buCount int) (*Store, *Tracker) {
	b.Helper()
	s := NewStore(cluster.Homogeneous(nodes), 3, randutil.New(1))
	if _, err := s.AddFile("f", int64(buCount)*BUSize); err != nil {
		b.Fatal(err)
	}
	tr, err := NewTracker(s, "f")
	if err != nil {
		b.Fatal(err)
	}
	return s, tr
}

// BenchmarkTrackerTakeLocal measures the local-bind hot path: round-robin
// nodes each taking 8 BUs until the pool drains, then a fresh tracker.
// The per-take cost is what every elastic-task dispatch pays.
func BenchmarkTrackerTakeLocal(b *testing.B) {
	const nodes, bus = 50, 16384
	s, tr := benchTracker(b, nodes, bus)
	b.ReportAllocs()
	b.ResetTimer()
	node := 0
	for i := 0; i < b.N; i++ {
		if tr.Remaining() == 0 {
			tr, _ = NewTracker(s, "f")
		}
		if got := tr.TakeLocal(cluster.NodeID(node%nodes), 8); len(got) == 0 {
			// Node drained locally; fall through to any node via Take.
			tr.Take(cluster.NodeID(node%nodes), 8)
		}
		node++
	}
}

// BenchmarkTrackerTakeRemote measures the richest-node heuristic under
// repeated 8-BU remote chunks.
func BenchmarkTrackerTakeRemote(b *testing.B) {
	const nodes, bus = 50, 16384
	s, tr := benchTracker(b, nodes, bus)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.Remaining() == 0 {
			tr, _ = NewTracker(s, "f")
		}
		if got := tr.TakeRemote(8); len(got) == 0 {
			b.Fatal("TakeRemote returned nothing with BUs remaining")
		}
	}
}

// BenchmarkTrackerTake measures the combined local-then-remote split
// construction exactly as OnSlotFree performs it.
func BenchmarkTrackerTake(b *testing.B) {
	const nodes, bus = 50, 16384
	s, tr := benchTracker(b, nodes, bus)
	b.ReportAllocs()
	b.ResetTimer()
	node := 0
	for i := 0; i < b.N; i++ {
		if tr.Remaining() == 0 {
			tr, _ = NewTracker(s, "f")
		}
		if got, _ := tr.Take(cluster.NodeID(node%nodes), 12); len(got) == 0 {
			b.Fatal("Take returned nothing with BUs remaining")
		}
		node++
	}
}

// BenchmarkAddFile measures placing a file into a fresh store at the
// benchmark workloads' three member counts: 1,024 BUs (64 placement
// groups) on the paper's 12-node cluster, where every tie is ranked, and
// 8 and 2 BUs per node on 2,000 and 10,000 nodes, the rack-2000 and
// fleet-10k inputs, where a group ranks only the ties that can win.
func BenchmarkAddFile(b *testing.B) {
	for _, bc := range []struct {
		nodes int
		bus   int64
	}{
		{12, 1024},
		{2000, 8 * 2000},
		{10000, 2 * 10000},
	} {
		b.Run(fmt.Sprintf("%d-nodes", bc.nodes), func(b *testing.B) {
			c := cluster.Homogeneous(bc.nodes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := NewStore(c, 3, randutil.New(1))
				if _, err := s.AddFile("f", bc.bus*BUSize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNodesFor measures one replica lookup, cycling over every BU
// of the store: a single 1,024-BU file, where every lookup hits the
// newest file, and 40 such files, the shape of a multi-job workload's
// shared store, where most lookups search the files.
func BenchmarkNodesFor(b *testing.B) {
	for _, files := range []int{1, 40} {
		b.Run(fmt.Sprintf("%d-files", files), func(b *testing.B) {
			s := NewStore(cluster.Homogeneous(40), 3, randutil.New(1))
			for i := 0; i < files; i++ {
				if _, err := s.AddFile(fmt.Sprint(i), 1024*BUSize); err != nil {
					b.Fatal(err)
				}
			}
			n := s.next()
			b.ReportAllocs()
			b.ResetTimer()
			replicas := 0
			for i := 0; i < b.N; i++ {
				replicas += len(s.NodesFor(BUID(i) % n))
			}
			if replicas != 3*b.N {
				b.Fatalf("%d replicas over %d lookups", replicas, b.N)
			}
		})
	}
}
