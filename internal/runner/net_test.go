package runner

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/faults"
	"flexmap/internal/mr"
	"flexmap/internal/net"
	"flexmap/internal/workload"
	"flexmap/internal/yarn"
)

// rackCluster wraps equivCluster with a two-level topology: n nodes in
// racks of hostsPerRack, rack uplinks oversubscribed by oversub.
func rackCluster(n, hostsPerRack int, oversub float64) ClusterFactory {
	return func() (*cluster.Cluster, cluster.Interferer) {
		c, ifr := equivCluster(n)()
		c.Topology = &cluster.TopologySpec{HostsPerRack: hostsPerRack, Oversub: oversub}
		return c, ifr
	}
}

// TestFullyLocalJobFiresNoFetch is the satellite-1 regression: with
// replication equal to the cluster size every block unit is node-local,
// so no attempt ever enters the fetch phase — zero map-fetch events,
// zero remote bytes.
func TestFullyLocalJobFiresNoFetch(t *testing.T) {
	spec, err := specForEquiv(3)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name:        "all-local",
		Cluster:     equivCluster(3),
		Seed:        0,
		Replication: 3,
		InputSize:   3 * 4 * dfs.BUSize,
	}
	eng := Engine{Kind: Hadoop}
	fired, _, res := runEquivCell(t, sc, spec, eng)
	for _, f := range fired {
		if f.name == "map-fetch" {
			t.Fatalf("fully-local run fired a map-fetch event at %v", f.at)
		}
	}
	if res.RemoteBytesRead != 0 {
		t.Fatalf("fully-local run read %d remote bytes", res.RemoteBytesRead)
	}
}

// TestNetValidationErrors pins satellite 2: a non-positive cluster
// bandwidth or an inconsistent topology spec is rejected at scenario
// build with a named error, for single jobs and workloads alike.
func TestNetValidationErrors(t *testing.T) {
	spec, err := specForEquiv(4)
	if err != nil {
		t.Fatal(err)
	}
	badBW := func() (*cluster.Cluster, cluster.Interferer) {
		c, _ := equivCluster(4)()
		c.NetBW = 0
		return c, nil
	}
	badTopo := func() (*cluster.Cluster, cluster.Interferer) {
		c, _ := equivCluster(4)()
		c.Topology = &cluster.TopologySpec{HostsPerRack: 0}
		return c, nil
	}
	cases := []struct {
		name    string
		factory ClusterFactory
		errSub  string
	}{
		{"zero-netbw", badBW, "NetBW"},
		{"bad-topology", badTopo, "HostsPerRack"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := Scenario{Name: tc.name, Cluster: tc.factory, InputSize: 8 * dfs.BUSize}
			if _, err := Run(sc, spec, Engine{Kind: Hadoop}); err == nil {
				t.Fatalf("Run accepted %s", tc.name)
			} else if !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("Run error %q does not mention %s", err, tc.errSub)
			}
			wsc := WorkloadScenario{
				Name: tc.name, Cluster: tc.factory, Seed: 1,
				Pattern: workload.Pattern{Jobs: 1, Rate: 1},
				Classes: []WorkloadClass{{
					Name: "wc", Weight: 1,
					MinBytes: 4 * dfs.BUSize, MaxBytes: 8 * dfs.BUSize,
					Engine: Engine{Kind: Hadoop}, Spec: spec,
				}},
				Policy: "fair",
			}
			if _, err := RunWorkload(wsc); err == nil {
				t.Fatalf("RunWorkload accepted %s", tc.name)
			} else if !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("RunWorkload error %q does not mention %s", err, tc.errSub)
			}
		})
	}
}

// TestRemoteReadAccountingUnderFaults is the satellite-3 property test:
// under crash injection with LATE speculation, kills land in every
// attempt phase, and the remote-read ledger must stay sandwiched between
// "every successful attempt fetched its remote bytes exactly once"
// (below: killed attempts may still have moved something) and "no
// attempt charged more than its remote bytes" (above).
func TestRemoteReadAccountingUnderFaults(t *testing.T) {
	spec, err := specForEquiv(50)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{0, 42, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sc := Scenario{
				Name:    "net-faults",
				Cluster: equivCluster(50),
				Seed:    seed,
				// Replication 1 scatters every 8-BU split across nodes, so
				// nearly all attempts carry remote bytes and crashes land
				// kills in every phase, fetch included.
				Replication: 1,
				InputSize:   50 * 4 * dfs.BUSize,
				Faults:      faults.Plan{CrashRate: 4},
			}
			res, err := Run(sc, spec, Engine{Kind: Hadoop})
			if err != nil {
				t.Fatal(err)
			}
			// Block units are uniform 8 MB here, so an attempt's remote
			// bytes are exactly its non-local BU count times BUSize.
			var lower, upper int64
			killedWithRemote := 0
			for _, a := range res.Attempts {
				if a.Type != mr.MapTask {
					continue
				}
				remote := int64(a.BUs-a.LocalBUs) * dfs.BUSize
				upper += remote
				if a.Killed {
					if remote > 0 {
						killedWithRemote++
					}
				} else {
					lower += remote
				}
			}
			got := res.RemoteBytesRead
			if got < lower {
				t.Fatalf("RemoteBytesRead = %d < successful-attempt remote sum %d (transfer lost)", got, lower)
			}
			if got > upper {
				t.Fatalf("RemoteBytesRead = %d > all-attempt remote sum %d (double-charged)", got, upper)
			}
			if lower == 0 {
				t.Fatalf("seed %d produced no remote reads — scenario does not exercise the ledger", seed)
			}
			t.Logf("seed %d: %d ≤ %d ≤ %d (%d killed attempts with remote bytes)",
				seed, lower, got, upper, killedWithRemote)
		})
	}
}

// TestFlatVsTopologyGolden is the golden diff between the legacy flat
// model (Topology == nil) and a 1:1 non-oversubscribed fabric on the
// same scenario: the flat run must emit no net-flow trace events and
// report no fabric stats, while the topology run must emit both — and
// the flat run's scalar outcome is pinned so network-model changes can
// never silently drift the legacy path.
func TestFlatVsTopologyGolden(t *testing.T) {
	const n = 20
	spec, err := specForEquiv(n)
	if err != nil {
		t.Fatal(err)
	}
	run := func(factory ClusterFactory) (*Result, string, []firing) {
		sc := Scenario{Name: "golden", Cluster: factory, Seed: 42, InputSize: n * 2 * dfs.BUSize}
		fired, raw, res := runEquivCell(t, sc, spec, Engine{Kind: FlexMap})
		return res, string(raw), fired
	}

	flat, flatTrace, flatFired := run(equivCluster(n))
	if strings.Contains(flatTrace, "net-flow") {
		t.Error("flat-model trace contains net-flow events")
	}
	for _, f := range flatFired {
		if f.name == "net-flow-done" {
			t.Fatal("flat-model run scheduled a fabric event")
		}
	}
	if flat.CrossRackBytes != 0 || flat.NetLinks != nil {
		t.Errorf("flat-model run reports fabric stats: cross=%d links=%d",
			flat.CrossRackBytes, len(flat.NetLinks))
	}

	topo, topoTrace, topoFired := run(rackCluster(n, 5, 1))
	if !strings.Contains(topoTrace, "net-flow-start") || !strings.Contains(topoTrace, "net-flow-end") {
		t.Error("topology trace missing net-flow events")
	}
	sawFlow := false
	for _, f := range topoFired {
		if f.name == "net-flow-done" {
			sawFlow = true
			break
		}
	}
	if !sawFlow {
		t.Error("topology run fired no fabric completion events")
	}
	if len(topo.NetLinks) == 0 {
		t.Error("topology run reports no link stats")
	}
	if topo.CrossRackBytes <= 0 {
		t.Errorf("topology run cross-rack bytes = %d, want > 0", topo.CrossRackBytes)
	}
	if topo.RemoteBytesRead != flat.RemoteBytesRead {
		t.Errorf("remote bytes read differ: topo %d vs flat %d — the ledger is model-independent",
			topo.RemoteBytesRead, flat.RemoteBytesRead)
	}

	// Golden pin of the legacy flat path. These values were captured from
	// the flat model before the fabric existed; if this fails, the
	// Topology==nil path is no longer byte-compatible with the seed.
	if got := fmt.Sprintf("finish=%.6f remote=%d events=%d", flat.Finished, flat.RemoteBytesRead, flat.SimEvents); got != flatGolden {
		t.Errorf("flat-model golden drifted:\ngot  %s\nwant %s", got, flatGolden)
	}
}

// flatGolden is the pinned flat-model outcome for TestFlatVsTopologyGolden.
const flatGolden = "finish=7.202050 remote=192937984 events=168"

// fabricFill returns a fabric's fill counters: recomputes run, active
// flows synced over them, and flows their component walks reached. The
// counters are unexported fields so that no caller outside a test can
// read them.
func fabricFill(f *net.Fabric) (recomputes, synced, filled int64) {
	v := reflect.ValueOf(f).Elem()
	return v.FieldByName("recomputes").Int(), v.FieldByName("synced").Int(), v.FieldByName("filled").Int()
}

// TestFabricFillPerRecompute is the counted gate on the fabric's
// component-scoped fill: flows filled per recompute against flows active,
// for one WordCount job over 8 BUs per node on 400 nodes in racks of 20
// behind a 4:1 core, with one crash per node-hour. A fill reaches only
// the changed flow's component of the flow–link graph: 12.79 flows of
// 83.53 active under Hadoop, 2.99 of 45.05 under FlexMap. A global fill
// would reach every active flow. At 2,000 nodes the counts read 12.36 of
// 396.85 and 4.59 of 220.33. Counts, not times, so the gate cannot flake.
func TestFabricFillPerRecompute(t *testing.T) {
	for _, c := range []struct {
		kind EngineKind
		max  float64
	}{{Hadoop, 16}, {FlexMap, 4}} {
		const n = 400
		sc := Scenario{Name: "fill", Cluster: rackCluster(n, 20, 4), Seed: 42,
			InputSize: int64(n*8) * dfs.BUSize, Faults: faults.Plan{CrashRate: 1}}
		var fabric *net.Fabric
		keep := func(s *stack, am yarn.Scheduler) yarn.Scheduler { fabric = s.fabric; return am }
		if _, err := run(sc, wcSpec(t, n/4), Engine{Kind: c.kind}, keep); err != nil {
			t.Fatal(err)
		}
		recomputes, synced, filled := fabricFill(fabric)
		perFill, active := float64(filled)/float64(recomputes), float64(synced)/float64(recomputes)
		t.Logf("%s: %.2f flows filled of %.2f active per recompute over %d recomputes", c.kind, perFill, active, recomputes)
		if perFill > c.max {
			t.Errorf("%s: %.2f flows filled per recompute, more than %.1f (%.2f active)", c.kind, perFill, c.max, active)
		}
	}
}
