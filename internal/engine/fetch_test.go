package engine

import (
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/net"
	"flexmap/internal/sim"
)

// The fetch-accounting suite pins the remote-read ledger: bytes land in
// Result.RemoteBytesRead when (and only when) a transfer actually moves
// them, so kills, crashes, and retries never leak or double-charge.
// Timing baseline: Overhead = 2.0s, NetBW = 1250 MB/s, so a 100MB
// fetch spans t=2.00..2.08 under the flat model.

// launchFetching starts a manual attempt on node 0 with 100MB of extra
// fetch traffic (the only remote bytes — the split itself is local).
func launchFetching(t *testing.T, h *harness, task string) *MapAttempt {
	t.Helper()
	f, _ := h.store.File("input")
	node := h.clus.Node(0)
	return h.driver.LaunchMap(MapLaunch{
		Task: task, Node: node, Container: h.rm.Acquire(node),
		BUs: f.BUs[:2], LocalBUs: 2,
		ExtraFetchBytes: 100 * MB,
		OnDone:          func(x *MapAttempt) { x.Container.Release() },
	})
}

func TestLocalAttemptSkipsFetchEvent(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	var fetchEvents int
	h.eng.SetFireObserver(func(_ sim.Time, name string) {
		if name == "map-fetch" {
			fetchEvents++
		}
	})
	a := launchOne(t, h, 8, nil)
	if a.RemoteBytes != 0 {
		t.Fatalf("fully-local attempt has RemoteBytes = %d", a.RemoteBytes)
	}
	h.eng.Run()
	if !a.Finished() {
		t.Fatal("attempt did not finish")
	}
	if fetchEvents != 0 {
		t.Fatalf("fully-local attempt fired %d map-fetch events, want 0", fetchEvents)
	}
	if h.driver.Result.RemoteBytesRead != 0 {
		t.Fatalf("fully-local attempt charged %d remote bytes", h.driver.Result.RemoteBytesRead)
	}
}

func TestKillDuringOverheadChargesNoRemoteBytes(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	a := launchFetching(t, h, "fetch-0")
	h.eng.At(1.0, "kill", func() {
		a.Kill()
		a.Container.Release()
	})
	h.eng.Run()
	if got := a.fetched; got != 0 {
		t.Fatalf("attempt killed pre-fetch reports %d fetched bytes", got)
	}
	if got := h.driver.Result.RemoteBytesRead; got != 0 {
		t.Fatalf("attempt killed pre-fetch charged %d remote bytes", got)
	}
}

func TestKillMidFetchChargesProRata(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	a := launchFetching(t, h, "fetch-0")
	// Halfway through the 0.08s fetch window.
	h.eng.At(2.04, "kill", func() {
		a.Kill()
		a.Container.Release()
	})
	h.eng.Run()
	got := a.fetched
	if got < 49*MB || got > 51*MB {
		t.Fatalf("pro-rata fetched = %d, want ~%d", got, 50*MB)
	}
	if h.driver.Result.RemoteBytesRead != got {
		t.Fatalf("result charged %d, attempt moved %d", h.driver.Result.RemoteBytesRead, got)
	}
}

// TestRetryAfterFetchKillCountsBothTransfers locks the once-per-transfer
// rule: a kill mid-fetch charges the partial bytes, and the retry's full
// re-fetch is a new transfer charged again — total = partial + full, with
// nothing charged at either dispatch.
func TestRetryAfterFetchKillCountsBothTransfers(t *testing.T) {
	h := newHarness(t, cluster.Homogeneous(2), 16, wcSpec(0))
	first := launchFetching(t, h, "fetch-0")
	var partial int64
	h.eng.At(2.04, "kill", func() {
		first.Kill()
		first.Container.Release()
		partial = first.fetched
		retry := launchFetching(t, h, "fetch-0-retry")
		if h.driver.Result.RemoteBytesRead != partial {
			t.Errorf("retry dispatch charged bytes: %d != %d", h.driver.Result.RemoteBytesRead, partial)
		}
		_ = retry
	})
	h.eng.Run()
	if partial <= 0 || partial >= 100*MB {
		t.Fatalf("kill mid-fetch moved %d bytes, want a strict partial", partial)
	}
	want := partial + 100*MB
	if got := h.driver.Result.RemoteBytesRead; got != want {
		t.Fatalf("total remote read = %d, want partial %d + full %d", got, partial, 100*MB)
	}
}

// TestKillMidFetchFabricChargesTransferred repeats the pro-rata kill under
// the topology fabric, where the credit comes from per-flow transferred
// bytes rather than an elapsed-time share.
func TestKillMidFetchFabricChargesTransferred(t *testing.T) {
	c := cluster.Homogeneous(2)
	c.Topology = &cluster.TopologySpec{HostsPerRack: 1}
	h := newHarness(t, c, 16, wcSpec(0))
	fab, err := net.New(h.eng, c)
	if err != nil {
		t.Fatal(err)
	}
	h.driver.Net = fab
	a := launchFetching(t, h, "fetch-0")
	h.eng.At(2.04, "kill", func() {
		a.Kill()
		a.Container.Release()
	})
	h.eng.Run()
	got := a.fetched
	if got < 49*MB || got > 51*MB {
		t.Fatalf("fabric kill fetched = %d, want ~%d", got, 50*MB)
	}
	if h.driver.Result.RemoteBytesRead != got {
		t.Fatalf("result charged %d, flows moved %d", h.driver.Result.RemoteBytesRead, got)
	}
	if fab.ActiveFlows() != 0 {
		t.Fatalf("canceled fetch left %d active flows", fab.ActiveFlows())
	}
}

// TestFabricFetchCompletesAndCharges is the happy path under the fabric:
// the agg flow drains at the bottleneck link rate and the full byte count
// is credited exactly once at completion.
func TestFabricFetchCompletesAndCharges(t *testing.T) {
	c := cluster.Homogeneous(2)
	c.Topology = &cluster.TopologySpec{HostsPerRack: 1}
	h := newHarness(t, c, 16, wcSpec(0))
	fab, err := net.New(h.eng, c)
	if err != nil {
		t.Fatal(err)
	}
	h.driver.Net = fab
	a := launchFetching(t, h, "fetch-0")
	h.eng.Run()
	if !a.Finished() {
		t.Fatal("attempt did not finish")
	}
	if got := a.fetched; got != 100*MB {
		t.Fatalf("fetched = %d, want %d", got, 100*MB)
	}
	if got := h.driver.Result.RemoteBytesRead; got != 100*MB {
		t.Fatalf("remote read = %d, want %d", got, 100*MB)
	}
}
