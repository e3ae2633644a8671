package faults

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
)

// referenceSchedule is Schedule as it was before seeds were derived
// without seeding: a root source per node, then a Split for the crash
// stream.
func referenceSchedule(p Plan, seed int64, n int) []Event {
	if !p.Active() {
		return nil
	}
	p = p.withDefaults()
	perSec := p.CrashRate / 3600
	var events []Event
	for i := 0; i < n; i++ {
		rng := randutil.New(randutil.DeriveSeed(seed, i)).Split("crash")
		t := sim.Time(0)
		for k := 0; k < maxPerNode; k++ {
			t += sim.Time(rng.ExpFloat64() / perSec)
			if t > horizon {
				break
			}
			d := p.MeanDowntime * sim.Duration(rng.ExpFloat64())
			if d < 20 {
				d = 20
			}
			events = append(events, Event{At: t, Node: cluster.NodeID(i), Duration: d})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Node < b.Node
	})
	return events
}

// TestScheduleMatchesReference compares Schedule with the reference
// event for event: a low rate that runs into the horizon with the
// default downtime and a high rate that runs into the per-node cap with
// a non-default one, three seeds, and 1, 7 and 200 nodes.
func TestScheduleMatchesReference(t *testing.T) {
	for si, p := range []Plan{
		{CrashRate: 2},
		{CrashRate: 2000, MeanDowntime: 30},
	} {
		for _, seed := range []int64{0, 42, -7} {
			for _, n := range []int{1, 7, 200} {
				name := fmt.Sprintf("shape%d/seed%d/n%d", si, seed, n)
				got, want := p.Schedule(seed, n), referenceSchedule(p, seed, n)
				if n == 200 && len(want) == 0 {
					t.Fatalf("%s: reference schedule is empty", name)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Schedule differs from the reference (%d vs %d events)", name, len(got), len(want))
				}
			}
		}
	}
}

// maxScheduleBytesPerNode bounds what Schedule allocates per node. A
// randutil source costs about 4.9 KB; the schedule seeds one per node,
// about 6.1 KB per node with the events and sort included. The old
// root-plus-Splits derivation allocated 23 KB per node.
const maxScheduleBytesPerNode = 8 << 10

// TestScheduleSeedsOnlyActiveKinds is the counted gate for seeding: a
// plan over 2,000 nodes must seed only each node's crash stream, not a
// root source to split it from.
func TestScheduleSeedsOnlyActiveKinds(t *testing.T) {
	const n = 2000
	p := Plan{CrashRate: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	evs := p.Schedule(42, n)
	runtime.ReadMemStats(&after)
	if len(evs) == 0 {
		t.Fatal("plan scheduled no events")
	}
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / n
	if perNode > maxScheduleBytesPerNode {
		t.Fatalf("Schedule allocated %.0f bytes per node, over the %d-byte gate: it seeds sources it never draws from",
			perNode, maxScheduleBytesPerNode)
	}
}

var scheduleSink []Event

// BenchmarkSchedule measures the crash timeline of a 2,000-node cluster
// at the rack-2000 benchmark's crash rate.
func BenchmarkSchedule(b *testing.B) {
	p := Plan{CrashRate: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scheduleSink = p.Schedule(42, 2000)
	}
}
