package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/mr"
	"flexmap/internal/sim"
)

// launchOne starts a manual map attempt of n BUs on the harness's node 0.
func launchOne(t *testing.T, h *harness, bus int, onDone func(*MapAttempt)) *MapAttempt {
	t.Helper()
	f, _ := h.store.File("input")
	node := h.clus.Node(0)
	if onDone == nil {
		onDone = func(a *MapAttempt) { a.Container.Release() }
	}
	return h.driver.LaunchMap(MapLaunch{
		Task:      "manual-0",
		Node:      node,
		Container: h.rm.Acquire(node),
		BUs:       f.BUs[:bus],
		LocalBUs:  bus,
		OnDone:    onDone,
	})
}

func TestAttemptLifecycleTiming(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	var done *MapAttempt
	a := launchOne(t, h, 8, func(x *MapAttempt) {
		done = x
		x.Container.Release()
	})
	// During overhead, no bytes processed.
	h.eng.RunUntil(1)
	if a.ProcessedBytes(h.eng.Now()) != 0 {
		t.Fatal("bytes processed during overhead phase")
	}
	if a.Progress(h.eng.Now()) != 0 {
		t.Fatal("progress during overhead phase")
	}
	// Mid-compute, progress is fractional.
	h.eng.RunUntil(5)
	p := a.Progress(h.eng.Now())
	if p <= 0 || p >= 1 {
		t.Fatalf("mid-compute progress = %v", p)
	}
	if rem := a.EstRemaining(h.eng.Now()); rem <= 0 {
		t.Fatalf("mid-compute EstRemaining = %v", rem)
	}
	h.eng.Run()
	if done == nil || !a.Finished() {
		t.Fatal("attempt did not finish")
	}
	if a.ProcessedBytes(h.eng.Now()) != a.Bytes {
		t.Fatal("finished attempt should report all bytes")
	}
	if a.EstRemaining(h.eng.Now()) != 0 {
		t.Fatal("finished attempt should have zero remaining")
	}
}

func TestKillDuringEachPhase(t *testing.T) {
	for _, killAt := range []sim.Time{1.0 /* overhead */, 5.0 /* compute */} {
		h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
		completed := false
		a := launchOne(t, h, 8, func(x *MapAttempt) { completed = true })
		h.eng.At(killAt, "kill", func() {
			if !a.Kill() {
				t.Errorf("Kill at %v returned false", killAt)
			}
			a.Container.Release()
		})
		h.eng.Run()
		if completed {
			t.Fatalf("killed attempt (at %v) completed", killAt)
		}
		if !a.Killed() {
			t.Fatal("Killed() = false")
		}
		// Killed record exists and is marked.
		found := false
		for _, rec := range h.driver.Result.Attempts {
			if rec.Task == "manual-0" && rec.Killed {
				found = true
			}
		}
		if !found {
			t.Fatal("no killed record")
		}
		// Double kill is a no-op.
		if a.Kill() {
			t.Fatal("second Kill returned true")
		}
	}
}

func TestKillAfterFinishIsNoop(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	a := launchOne(t, h, 4, nil)
	h.eng.Run()
	if a.Kill() {
		t.Fatal("Kill after completion returned true")
	}
}

func TestSplitBUsPrefix(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	a := launchOne(t, h, 8, nil)
	// At t=2 compute starts; by t=2+3.3 ≈ 4 BUs processed (10MB/s, 8MB each
	// with spill ≈ 1.02).
	h.eng.RunUntil(5.3)
	done, rem := a.SplitBUs(h.eng.Now())
	if len(done)+len(rem) != 8 {
		t.Fatalf("split lost BUs: %d+%d", len(done), len(rem))
	}
	if len(done) == 0 || len(rem) == 0 {
		t.Fatalf("expected partial progress, got %d done / %d remaining", len(done), len(rem))
	}
	// The done prefix must be the first BUs in order.
	for i, id := range done {
		if id != a.BUs[i] {
			t.Fatal("done prefix is not a prefix")
		}
	}
	h.eng.Run()
	done, rem = a.SplitBUs(h.eng.Now())
	if len(done) != 8 || len(rem) != 0 {
		t.Fatalf("finished attempt split = %d/%d", len(done), len(rem))
	}
}

// TestRemainingAtLeastMatchesSplit checks the O(k) remainder test
// against the split it replaces: for random BU sequences of a file whose
// final BU is short (placed anywhere in the sequence), at processed byte
// counts on, just before and just after every BU boundary, and at every
// k, remainingAtLeast(p, k) ⇔ len(splitAt(p).remaining) ≥ k.
func TestRemainingAtLeastMatchesSplit(t *testing.T) {
	const fileBytes = 20*dfs.BUSize - 3*dfs.BUSize/4 // 20 BUs, the last 2 MB
	store := dfs.NewStore(cluster.Homogeneous(4), 3, testRNG())
	f, err := store.AddFile("input", fileBytes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(NewExecutor(sim.New(), cluster.Homogeneous(4), BaseIPS), store, nil, wcSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	check := func(seed int64, length uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(length)%len(f.BUs)
		a := &MapAttempt{d: d}
		for _, i := range rng.Perm(len(f.BUs))[:n] {
			a.BUs = append(a.BUs, f.BUs[i])
			a.Bytes += store.Block(f.BUs[i]).Size
		}
		probes := []int64{-1, 0, a.Bytes - 1, a.Bytes, a.Bytes + 1, rng.Int63n(a.Bytes)}
		var cum int64
		for _, id := range a.BUs {
			cum += store.Block(id).Size
			probes = append(probes, cum-1, cum, cum+1)
		}
		for _, p := range probes {
			_, rem := a.splitAt(p)
			for k := -1; k <= n+1; k++ {
				if got, want := a.remainingAtLeast(p, k), len(rem) >= k; got != want {
					t.Errorf("BUs %v processed %d k %d: remainingAtLeast %v, split leaves %d", a.BUs, p, k, got, len(rem))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRemainingAtLeastLive compares RemainingAtLeast with SplitBUs on a
// running attempt at every event and between events, through every phase.
func TestRemainingAtLeastLive(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	a := launchOne(t, h, 8, nil)
	for now := sim.Time(0); now < 30; now += 0.25 {
		h.eng.RunUntil(now)
		_, rem := a.SplitBUs(now)
		for k := 0; k <= 9; k++ {
			if got, want := a.RemainingAtLeast(now, k), len(rem) >= k; got != want {
				t.Fatalf("t=%v k=%d: RemainingAtLeast %v, SplitBUs leaves %d", now, k, got, len(rem))
			}
		}
	}
}

func TestRunningMapsRegistry(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 32, wcSpec(0))
	launchOne(t, h, 8, nil)
	if got := len(h.driver.running[0]); got != 1 {
		t.Fatalf("node 0 runs %d maps, want 1", got)
	}
	count := func() int {
		n := 0
		h.driver.EachRunningMap(func(*MapAttempt) { n++ })
		return n
	}
	if got := count(); got != 1 {
		t.Fatalf("EachRunningMap visited %d, want 1", got)
	}
	h.eng.Run()
	if got := count(); got != 0 {
		t.Fatalf("registry not cleaned: %d", got)
	}
}

func TestShuffleAccounting(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(2)) // shuffle ratio 0.3
	a := launchOne(t, h, 8, func(x *MapAttempt) {
		x.Container.Release()
		h.driver.CommitOutput(x)
	})
	h.eng.Run()
	want := int64(float64(a.Bytes) * 0.3)
	if got := h.driver.interByNode[0]; got != want {
		t.Fatalf("intermediate on node 0 = %d, want %d", got, want)
	}
	if h.driver.totalInter != want {
		t.Fatal("total intermediate mismatch")
	}
}

func TestZeroShuffleWithReducers(t *testing.T) {
	// ShuffleRatio 0 with reducers: partitions are empty, reduce completes
	// after bare overhead without work units (no panic on zero units).
	spec := mr.JobSpec{Name: "z", InputFile: "input", NumReducers: 4,
		MapCost: 1, ShuffleRatio: 0, ReduceCost: 1}
	h := newHarness(t, cluster.Homogeneous(2), 16, spec)
	bindStock(t, h.driver, 8, nil)
	h.rm.Start()
	h.eng.Run()
	if !h.driver.Finished() {
		t.Fatal("zero-shuffle job did not finish")
	}
	if got := len(h.driver.Result.ReduceAttempts()); got != 4 {
		t.Fatalf("reduce attempts = %d", got)
	}
}

func TestReduceMultiWavePerNode(t *testing.T) {
	// 1 node × 2 slots, 6 reducers → three reduce waves on that node.
	spec := wcSpec(6)
	h := newHarness(t, cluster.Homogeneous(1), 16, spec)
	bindStock(t, h.driver, 8, nil)
	h.rm.Start()
	h.eng.Run()
	reds := h.driver.Result.ReduceAttempts()
	if len(reds) != 6 {
		t.Fatalf("reduce attempts = %d", len(reds))
	}
	// Group into distinct start times: must be exactly 3 waves of 2.
	starts := map[sim.Time]int{}
	for _, r := range reds {
		starts[r.Start]++
	}
	if len(starts) != 3 {
		t.Fatalf("reduce waves = %d, want 3 (starts: %v)", len(starts), starts)
	}
	for at, n := range starts {
		if n != 2 {
			t.Fatalf("wave at %v has %d reducers, want 2", at, n)
		}
	}
}

func TestMapsDoneTwicePanics(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	h.driver.MapsDone()
	defer func() {
		if recover() == nil {
			t.Error("second MapsDone did not panic")
		}
	}()
	h.driver.MapsDone()
}

func TestLaunchEmptySplitPanics(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	node := h.clus.Node(0)
	defer func() {
		if recover() == nil {
			t.Error("empty split did not panic")
		}
	}()
	h.driver.LaunchMap(MapLaunch{Task: "x", Node: node, Container: h.rm.Acquire(node)})
}

func TestExtraFetchBytesCharged(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	f, _ := h.store.File("input")
	node := h.clus.Node(0)
	a := h.driver.LaunchMap(MapLaunch{
		Task: "x", Node: node, Container: h.rm.Acquire(node),
		BUs: f.BUs[:2], LocalBUs: 2,
		ExtraFetchBytes: 100 * MB,
		OnDone:          func(x *MapAttempt) { x.Container.Release() },
	})
	if a.RemoteBytes != 100*MB {
		t.Fatalf("remote bytes = %d", a.RemoteBytes)
	}
	// Remote reads are credited when the transfer completes, not at
	// dispatch — a launch charges nothing until bytes actually move.
	if h.driver.Result.RemoteBytesRead != 0 {
		t.Fatalf("remote read charged at dispatch: %d", h.driver.Result.RemoteBytesRead)
	}
	h.eng.Run()
	if h.driver.Result.RemoteBytesRead != 100*MB {
		t.Fatalf("remote read = %d after run, want %d", h.driver.Result.RemoteBytesRead, 100*MB)
	}
	if a.fetched != 100*MB {
		t.Fatalf("attempt fetched = %d, want %d", a.fetched, 100*MB)
	}
	// The fetch adds 100MB/1250MBps = 0.08s to the effective runtime.
	rec := h.driver.Result.Attempts[0]
	if rec.Effective <= 0 {
		t.Fatal("no effective time recorded")
	}
}

func TestOnFinishedHooks(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	called := 0
	h.driver.OnFinished(func() { called++ })
	h.driver.OnFinished(func() { called++ })
	bindStock(t, h.driver, 8, nil)
	h.rm.Start()
	h.eng.Run()
	if called != 2 {
		t.Fatalf("OnFinished hooks called %d times, want 2", called)
	}
}

func TestSpillMultiplierMonotone(t *testing.T) {
	prev := 0.0
	for _, mb := range []int64{8, 64, 256, 512, 1024} {
		m := SpillMultiplier(mb * MB)
		if m <= prev || m < 1 {
			t.Fatalf("spill multiplier not increasing at %dMB: %v", mb, m)
		}
		prev = m
	}
}

func TestNoiseDisabledByDefaultInDriver(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	if h.driver.drawNoise() != 1.0 {
		t.Fatal("noise should be disabled when no source is attached")
	}
}

// TestItoa4MatchesSprintf pins task names to fmt's %04d, digits past the
// fourth included: partition 10000 must not alias partition 0.
func TestItoa4MatchesSprintf(t *testing.T) {
	for _, v := range []int{0, 7, 42, 999, 9999, 10000, 12345, 123456789} {
		if got, want := itoa4("reduce-", v), fmt.Sprintf("reduce-%04d", v); got != want {
			t.Errorf("itoa4(%d) = %q, want %q", v, got, want)
		}
	}
	if got := MapTaskName(10000); got != "map-10000" {
		t.Errorf("MapTaskName(10000) = %q, want map-10000", got)
	}
}
