package core

import (
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/engine"
	"flexmap/internal/mr"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/yarn"
)

// benchMonitor builds a SpeedMonitor over an n-node cluster with every
// node's IPS window full — the state every mid-job dispatch sees.
func benchMonitor(b *testing.B, n int) *SpeedMonitor {
	b.Helper()
	eng := sim.New()
	specs := make([]cluster.NodeSpec, n)
	for i := range specs {
		specs[i] = cluster.NodeSpec{BaseSpeed: 1 + float64(i%4), Slots: 2}
	}
	c := cluster.NewCluster("bench", specs)
	store := dfs.NewStore(c, 3, randutil.New(1))
	if _, err := store.AddFile("input", 64*dfs.BUSize); err != nil {
		b.Fatal(err)
	}
	spec := mr.JobSpec{Name: "wc", InputFile: "input", MapCost: 1}
	d, err := engine.NewDriver(engine.NewExecutor(eng, c, engine.BaseIPS), store, yarn.NewRM(eng, c), spec)
	if err != nil {
		b.Fatal(err)
	}
	m := NewSpeedMonitor(d)
	for i := 0; i < n; i++ {
		for k := 0; k < ipsWindow; k++ {
			m.push(cluster.NodeID(i), float64(1+i%4)*10e6+float64(k))
		}
	}
	return m
}

// BenchmarkRelativeSpeed measures what fairShare reads after a window
// changes: every node's relative speed. Each iteration resets one node's
// window, which drops the memoized extremes when the node held one, so
// the first read after it rescans the windows.
func BenchmarkRelativeSpeed(b *testing.B) {
	m := benchMonitor(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ResetNode(cluster.NodeID(i % 200))
		for id := cluster.NodeID(0); id < 200; id++ {
			if m.RelativeSpeed(id) < 1 {
				b.Fatal("relative speed below 1")
			}
		}
	}
}

// BenchmarkCapacity measures the capacities the biased dispatcher reads
// once per job, at the start of the reduce phase.
func BenchmarkCapacity(b *testing.B) {
	m := benchMonitor(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := cluster.NodeID(0); id < 200; id++ {
			if c := m.Capacity(id); c <= 0 || c > 1 {
				b.Fatal("capacity out of (0,1]")
			}
		}
	}
}

// BenchmarkMonitorPush measures one heartbeat sample insertion.
func BenchmarkMonitorPush(b *testing.B) {
	m := benchMonitor(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.push(cluster.NodeID(i%8), float64(i))
	}
}
