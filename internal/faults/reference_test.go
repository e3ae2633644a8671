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
// without seeding: a root source per node, then one Split per kind,
// each seeded whether or not its kind is on.
func referenceSchedule(p Plan, seed int64, n int) []Event {
	if !p.Active() {
		return nil
	}
	p = p.withDefaults()
	var events []Event
	for i := 0; i < n; i++ {
		rng := randutil.New(randutil.DeriveSeed(seed, i))
		id := cluster.NodeID(i)
		events = append(events, referenceArrivals(p, id, rng.Split("crash"), Crash, p.CrashRate)...)
		events = append(events, referenceArrivals(p, id, rng.Split("slowdown"), Slowdown, p.SlowdownRate)...)
		events = append(events, referenceArrivals(p, id, rng.Split("preempt"), Preempt, p.PreemptRate)...)
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Kind < b.Kind
	})
	return events
}

func referenceArrivals(p Plan, id cluster.NodeID, rng *randutil.Source, kind Kind, perHour float64) []Event {
	if perHour <= 0 {
		return nil
	}
	perSec := perHour / 3600
	var out []Event
	t := sim.Time(0)
	for len(out) < maxPerNode {
		t += sim.Time(rng.ExpFloat64() / perSec)
		if t > horizon {
			break
		}
		ev := Event{At: t, Node: id, Kind: kind}
		switch kind {
		case Crash:
			ev.Duration = p.MeanDowntime * sim.Duration(rng.ExpFloat64())
			if ev.Duration < 20 {
				ev.Duration = 20
			}
		case Slowdown:
			ev.Duration = meanSlowdown * sim.Duration(rng.ExpFloat64())
			if ev.Duration < 10 {
				ev.Duration = 10
			}
			ev.Factor = minSlowFactor + rng.Float64()*(maxSlowFactor-minSlowFactor)
		}
		out = append(out, ev)
	}
	return out
}

// TestScheduleMatchesReference compares Schedule with the reference
// event for event: every non-empty combination of the three kinds, at
// low rates that run into the horizon with the default downtime and at
// high rates that run into the per-node cap with a non-default one,
// three seeds, and 1, 7 and 200 nodes.
func TestScheduleMatchesReference(t *testing.T) {
	shapes := []struct {
		scale    float64
		downtime sim.Duration
	}{
		{1, 0},
		{1000, 30},
	}
	for mask := 1; mask < 8; mask++ {
		for si, shape := range shapes {
			p := Plan{MeanDowntime: shape.downtime}
			if mask&1 != 0 {
				p.CrashRate = 2 * shape.scale
			}
			if mask&2 != 0 {
				p.SlowdownRate = 3 * shape.scale
			}
			if mask&4 != 0 {
				p.PreemptRate = 4 * shape.scale
			}
			for _, seed := range []int64{0, 42, -7} {
				for _, n := range []int{1, 7, 200} {
					name := fmt.Sprintf("kinds%03b/shape%d/seed%d/n%d", mask, si, seed, n)
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
}

// maxScheduleBytesPerNode bounds what a crash-only Schedule allocates per
// node. Seeding a math/rand source costs about 4.9 KB; the schedule
// seeds one per node and active kind, about 6.1 KB per node with the
// events and sort included. The old root-plus-three-Splits derivation
// allocated 23 KB per node.
const maxScheduleBytesPerNode = 8 << 10

// TestScheduleSeedsOnlyActiveKinds is the counted gate for seeding: a
// crash-only plan over 2,000 nodes must not seed the sources of the
// kinds that are off.
func TestScheduleSeedsOnlyActiveKinds(t *testing.T) {
	const n = 2000
	p := Plan{CrashRate: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	evs := p.Schedule(42, n)
	runtime.ReadMemStats(&after)
	if len(evs) == 0 {
		t.Fatal("crash-only plan scheduled no events")
	}
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / n
	if perNode > maxScheduleBytesPerNode {
		t.Fatalf("Schedule allocated %.0f bytes per node, over the %d-byte gate: it seeds streams it never draws from",
			perNode, maxScheduleBytesPerNode)
	}
}

var scheduleSink []Event

// BenchmarkSchedule measures the fault timeline of a 2,000-node cluster
// under a crash-only plan, the rack-2000 benchmark's setting.
func BenchmarkSchedule(b *testing.B) {
	p := Plan{CrashRate: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scheduleSink = p.Schedule(42, 2000)
	}
}
