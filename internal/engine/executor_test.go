package engine

import (
	"runtime"
	"strings"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/sim"
)

func TestCostModelCalibration(t *testing.T) {
	// Fig. 3(b,c): 8 MB productivity ≈ 0.28, 64 MB ≈ 0.76 on a slow node.
	p8 := Productivity(8*MB, 1.0, 1.0)
	if p8 < 0.25 || p8 > 0.32 {
		t.Errorf("8MB productivity = %.3f, want ≈0.28", p8)
	}
	p64 := Productivity(64*MB, 1.0, 1.0)
	if p64 < 0.66 || p64 > 0.80 {
		t.Errorf("64MB productivity = %.3f, want ≈0.7", p64)
	}
	// Productivity is monotonically increasing in task size.
	prev := 0.0
	for _, mb := range []int64{8, 16, 32, 64, 128, 256} {
		p := Productivity(mb*MB, 1.0, 1.0)
		if p <= prev {
			t.Fatalf("productivity not increasing at %d MB", mb)
		}
		prev = p
	}
	// Faster nodes have lower productivity at the same size — the effect
	// that drives FlexMap's differentiated vertical scaling.
	if Productivity(64*MB, 1.0, 2.0) >= p64 {
		t.Error("faster node should have lower productivity at fixed size")
	}
}

func TestWorkConstantSpeed(t *testing.T) {
	eng := sim.New()
	c := cluster.Homogeneous(1)
	x := NewExecutor(eng, c, 10) // 10 units/s at speed 1
	done := false
	startWork(x, c.Node(0), 100, func() { done = true })
	end := eng.Run()
	if !done {
		t.Fatal("work never completed")
	}
	if end != 10 {
		t.Fatalf("completed at %v, want 10", end)
	}
}

func TestWorkSpeedChangeMidFlight(t *testing.T) {
	eng := sim.New()
	c := cluster.NewCluster("t", []cluster.NodeSpec{{BaseSpeed: 1}})
	n := c.Node(0)
	x := NewExecutor(eng, c, 10)
	var doneAt sim.Time
	startWork(x, n, 100, func() { doneAt = eng.Now() })
	// At t=5, halve the speed: 50 units remain at 5 units/s → +10 s.
	eng.At(5, "slow", func() { n.SetInterference(0.5) })
	eng.Run()
	if doneAt < 15-1e-9 || doneAt > 15+1e-9 {
		t.Fatalf("completed at %v, want 15", doneAt)
	}
}

func TestWorkSpeedRecovery(t *testing.T) {
	eng := sim.New()
	c := cluster.NewCluster("t", []cluster.NodeSpec{{BaseSpeed: 1}})
	n := c.Node(0)
	x := NewExecutor(eng, c, 10)
	var doneAt sim.Time
	startWork(x, n, 100, func() { doneAt = eng.Now() })
	eng.At(2, "slow", func() { n.SetInterference(0.25) }) // 80 left at 2.5/s
	eng.At(6, "fast", func() { n.SetInterference(1.0) })  // 70 left at 10/s
	eng.Run()
	want := sim.Time(6 + 7)
	if doneAt < want-1e-9 || doneAt > want+1e-9 {
		t.Fatalf("completed at %v, want %v", doneAt, want)
	}
}

func TestProcessedUnits(t *testing.T) {
	eng := sim.New()
	c := cluster.Homogeneous(1)
	x := NewExecutor(eng, c, 10)
	w := startWork(x, c.Node(0), 100, func() {})
	eng.At(3, "check", func() {
		if got := w.ProcessedUnits(eng.Now()); got < 30-1e-9 || got > 30+1e-9 {
			t.Errorf("ProcessedUnits at t=3 = %v, want 30", got)
		}
	})
	eng.Run()
	if !w.finished {
		t.Fatal("work not done")
	}
	if w.ProcessedUnits(eng.Now()) != 100 {
		t.Fatal("finished work should report full units")
	}
}

func TestCancelWork(t *testing.T) {
	eng := sim.New()
	c := cluster.Homogeneous(1)
	x := NewExecutor(eng, c, 10)
	fired := false
	w := startWork(x, c.Node(0), 100, func() { fired = true })
	eng.At(4, "cancel", func() { x.Cancel(w) })
	eng.Run()
	if fired {
		t.Fatal("canceled work completed")
	}
	if len(x.running[0]) != 0 {
		t.Fatal("canceled work still registered")
	}
	// Cancel is idempotent, including on nil.
	x.Cancel(w)
	x.Cancel(nil)
}

func TestMultipleWorksPerNode(t *testing.T) {
	eng := sim.New()
	c := cluster.NewCluster("t", []cluster.NodeSpec{{BaseSpeed: 1, Slots: 2}})
	n := c.Node(0)
	x := NewExecutor(eng, c, 10)
	var ends []sim.Time
	startWork(x, n, 50, func() { ends = append(ends, eng.Now()) })
	startWork(x, n, 100, func() { ends = append(ends, eng.Now()) })
	eng.At(1, "slow", func() { n.SetInterference(0.5) })
	eng.Run()
	// Work A: 10 units by t=1, 40 left at 5/s → t=9.
	// Work B: 10 by t=1, 90 at 5/s → t=19.
	if len(ends) != 2 {
		t.Fatalf("%d works completed, want 2", len(ends))
	}
	if ends[0] != 9 || ends[1] != 19 {
		t.Fatalf("ends = %v, want [9 19]", ends)
	}
}

// TestSharedExecutorTiesFireInStartOrder checks that a run's drivers
// share one executor: works two jobs start on one node, which tie after a
// speed change, complete in the order they started, whichever job
// started them.
func TestSharedExecutorTiesFireInStartOrder(t *testing.T) {
	eng := sim.New()
	c := cluster.NewCluster("t", []cluster.NodeSpec{{BaseSpeed: 1, Slots: 4}})
	n := c.Node(0)
	store := dfs.NewStore(c, 1, testRNG())
	x := NewExecutor(eng, c, 10)
	var drivers []*Driver
	for _, name := range []string{"a", "b"} {
		spec := wcSpec(0)
		spec.Name, spec.InputFile = name, name+"/input"
		if _, err := store.AddFile(spec.InputFile, dfs.BUSize); err != nil {
			t.Fatal(err)
		}
		d, err := NewDriver(x, store, nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		drivers = append(drivers, d)
	}
	a, b := drivers[0], drivers[1]
	if a.Exec != x || b.Exec != x {
		t.Fatal("drivers do not share the run's executor")
	}
	var order []string
	for _, w := range []struct {
		d    *Driver
		name string
	}{{b, "b1"}, {a, "a1"}, {b, "b2"}} {
		name := w.name
		startWork(w.d.Exec, n, 100, func() { order = append(order, name) })
	}
	eng.At(1, "slow", func() { n.SetInterference(0.5) })
	eng.Run()
	if got := strings.Join(order, ","); got != "b1,a1,b2" {
		t.Fatalf("completion order %s, want b1,a1,b2", got)
	}
}

// TestNewDriverAllocsIndependentOfFleet is the counted gate on job
// assembly: every driver of a run shares its executor, and a driver's
// per-node state is sized by its input, so building one allocates as
// many objects, and as many bytes, on 2,000 nodes as on 200. (An
// executor per driver, appending a speed listener to every node, took
// 261 allocations a driver at 200 nodes and 2,511 at 2,000; per-node
// arrays over the fleet took 7.8 KB a driver at 200 nodes and 67 KB at
// 2,000, where it now reads 1.6 KB on both.)
func TestNewDriverAllocsIndependentOfFleet(t *testing.T) {
	const runs = 20
	perDriver := func(nodes int) (allocs, bytes float64) {
		eng := sim.New()
		c := cluster.Homogeneous(nodes)
		store := dfs.NewStore(c, 3, testRNG())
		if _, err := store.AddFile("input", 8*dfs.BUSize); err != nil {
			t.Fatal(err)
		}
		x := NewExecutor(eng, c, BaseIPS)
		rm := newRM(eng, c)
		build := func() {
			if _, err := NewDriver(x, store, rm, wcSpec(0)); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(runs, build)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			build()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := perDriver(200)
	largeAllocs, largeBytes := perDriver(2000)
	if smallAllocs != largeAllocs {
		t.Errorf("NewDriver allocates %v objects on 200 nodes and %v on 2,000; want equal", smallAllocs, largeAllocs)
	}
	if smallBytes != largeBytes {
		t.Errorf("NewDriver allocates %v bytes on 200 nodes and %v on 2,000; want equal", smallBytes, largeBytes)
	}
}

func TestZeroUnitsPanics(t *testing.T) {
	eng := sim.New()
	c := cluster.Homogeneous(1)
	x := NewExecutor(eng, c, 10)
	defer func() {
		if recover() == nil {
			t.Error("zero-unit work did not panic")
		}
	}()
	startWork(x, c.Node(0), 0, func() {})
}

// startWork runs units of work on n in a fresh Work whose completion
// calls done.
func startWork(x *Executor, n *cluster.Node, units float64, done func()) *Work {
	w := new(Work)
	x.Start(w, n, units, func() {
		x.finish(w)
		done()
	})
	return w
}
