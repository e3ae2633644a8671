// Package faults generates seeded, deterministic node-crash schedules
// for the simulator and injects them into a running job.
//
// A Plan is declarative: Schedule derives the complete crash timeline as
// a pure function of (plan, seed, cluster size). Each node's seed comes
// from randutil.DeriveSeed, and its crash stream is seeded from
// randutil.SplitSeed(node seed, "crash") only when the rate is positive.
// The same plan and seed always produce the same schedule, whether
// generated before or during a run, serially or across worker goroutines
// — the property the fault-grid determinism tests pin down. The schedule
// is also replayable: it can be inspected, logged, or re-injected into
// another run unchanged.
package faults

import (
	"sort"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
)

// Event is one scheduled node crash.
type Event struct {
	At   sim.Time
	Node cluster.NodeID
	// Duration is the node's downtime.
	Duration sim.Duration
}

// The fixed shape of a crash timeline. Arrivals stop at horizon (jobs
// outlasting it run fault-free afterwards) or after maxPerNode crashes
// per node, a guard against degenerate rates.
const (
	horizon    sim.Time = 14400 // 4 h
	maxPerNode int      = 64
)

// Plan declares a crash workload. The zero value injects nothing
// (Active reports false); CrashRate is expected crashes per node-hour,
// drawn as an independent Poisson process per node up to a 4 h horizon,
// at most 64 crashes per node.
type Plan struct {
	// CrashRate is expected node crashes per node-hour. A crashed node
	// goes silent, killing everything on it, and restores after a
	// downtime drawn exponentially around MeanDowntime.
	CrashRate float64
	// MeanDowntime is the mean crash downtime in virtual seconds
	// (default 120; floored at 20 so restores stay observable).
	MeanDowntime sim.Duration
}

// Active reports whether the plan injects any faults. Inactive plans
// cost nothing: runner skips the watcher and injector entirely, keeping
// fault-free runs byte-identical to a build without this package.
func (p Plan) Active() bool {
	return p.CrashRate > 0
}

// withDefaults fills a zero MeanDowntime.
func (p Plan) withDefaults() Plan {
	if p.MeanDowntime <= 0 {
		p.MeanDowntime = 120
	}
	return p
}

// Schedule derives the full crash timeline for an n-node cluster — a
// pure function of (plan, seed, n). Events are sorted by (At, Node) so
// injection order is deterministic even for same-instant arrivals on
// different nodes.
func (p Plan) Schedule(seed int64, n int) []Event {
	if !p.Active() {
		return nil
	}
	p = p.withDefaults()
	var events []Event
	for i := 0; i < n; i++ {
		events = p.crashes(events, cluster.NodeID(i), randutil.DeriveSeed(seed, i))
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

// crashes appends one node's Poisson crash arrivals up to the horizon to
// out. seed is the node's seed; the stream is split from it by the label
// "crash".
func (p Plan) crashes(out []Event, id cluster.NodeID, seed int64) []Event {
	rng := randutil.New(randutil.SplitSeed(seed, "crash"))
	perSec := p.CrashRate / 3600
	t := sim.Time(0)
	for n := 0; n < maxPerNode; n++ {
		t += sim.Time(rng.ExpFloat64() / perSec)
		if t > horizon {
			break
		}
		d := p.MeanDowntime * sim.Duration(rng.ExpFloat64())
		if d < 20 {
			d = 20
		}
		out = append(out, Event{At: t, Node: id, Duration: d})
	}
	return out
}
