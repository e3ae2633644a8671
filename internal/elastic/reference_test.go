package elastic

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
)

// referenceSchedule is Schedule as it was before seeds were derived
// without seeding: each spare seeded a root source only to Split it.
func referenceSchedule(p Plan, seed int64, spares []cluster.NodeID) []Event {
	if !p.Active() {
		return nil
	}
	p = p.withDefaults()
	var events []Event
	if p.JoinsPerHour > 0 {
		for _, id := range spares {
			rng := randutil.New(randutil.DeriveSeed(seed, int(id))).Split("membership")
			events = append(events, p.nodeEvents(id, rng)...)
		}
	}
	events = append(events, p.Script...)
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

// TestScheduleMatchesReference compares Schedule with the reference
// event for event: seeded churn with and without a Script, slow churn
// that runs into the horizon, joins that never leave, fast spot churn
// that runs into the per-spare cap, a script-only plan, three seeds and
// three pool sizes.
func TestScheduleMatchesReference(t *testing.T) {
	plans := map[string]Plan{
		"churn":        churnPlan(0),
		"slow-churn":   slowChurnPlan(0),
		"joins-only":   {JoinsPerHour: 12},
		"spot-capped":  {JoinsPerHour: 40, LeavesPerHour: 40, SpotFraction: 0.8},
		"script-only":  {},
		"churn+script": churnPlan(0),
	}
	for _, name := range []string{"churn", "slow-churn", "joins-only", "spot-capped", "script-only", "churn+script"} {
		for _, seed := range []int64{0, 42, -7} {
			for _, n := range []int{1, 7, 64} {
				ids := spareIDs(n)
				p := plans[name]
				p.Spares = n
				if name == "script-only" || name == "churn+script" {
					p.Script = []Event{
						{At: 900, Node: ids[n-1], Kind: Drain},
						{At: 30, Node: ids[0], Kind: Join},
						{At: 30, Node: ids[n-1], Kind: Join},
					}
				}
				label := fmt.Sprintf("%s/seed%d/n%d", name, seed, n)
				got, want := p.Schedule(seed, ids), referenceSchedule(p, seed, ids)
				if len(want) == 0 {
					t.Fatalf("%s: reference schedule is empty", label)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Schedule differs from the reference (%d vs %d events)", label, len(got), len(want))
				}
			}
		}
	}
}

// maxScheduleBytesPerSpare bounds what a slow-churn Schedule allocates
// per spare. One seeded math/rand source is about 4.9 KB, and the
// schedule measures about 5.9 KB per spare with its events and sort. The
// bound is 1.5× that, under the two sources per spare (11.3 KB) that the
// old derivation seeded.
const maxScheduleBytesPerSpare = 8800

// TestScheduleSeedsOneSourcePerSpare is the counted gate for seeding in
// the membership timeline.
func TestScheduleSeedsOneSourcePerSpare(t *testing.T) {
	const n = 500
	ids := spareIDs(n)
	// A slow churn: a few events per spare, so the seeding dominates.
	p := Plan{Spares: n, JoinsPerHour: 1, LeavesPerHour: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	evs := p.Schedule(42, ids)
	runtime.ReadMemStats(&after)
	if len(evs) == 0 {
		t.Fatal("churn plan scheduled no events")
	}
	perSpare := float64(after.TotalAlloc-before.TotalAlloc) / n
	if perSpare > maxScheduleBytesPerSpare {
		t.Fatalf("Schedule allocated %.0f bytes per spare, over the %d-byte gate: it seeds more than one source per spare",
			perSpare, maxScheduleBytesPerSpare)
	}
}
