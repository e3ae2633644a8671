// Package faults generates seeded, deterministic fault schedules for the
// simulator — node crashes with downtime, transient slowdowns, and
// container preemptions — and injects them into a running job.
//
// A Plan is declarative: Schedule derives the complete fault timeline as
// a pure function of (plan, seed, cluster size). Each node's seed comes
// from randutil.DeriveSeed, and each fault kind draws from its own
// stream, seeded from randutil.SplitSeed(node seed, kind label) only when
// that kind's rate is positive. The same plan and seed always produce
// the same schedule, whether generated before or during a run, serially
// or across worker goroutines — the property the fault-grid determinism
// tests pin down. The schedule is also replayable: it can be inspected,
// logged, or re-injected into another run unchanged.
package faults

import (
	"fmt"
	"sort"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
)

// Kind is a fault event type.
type Kind int

// Fault kinds, in injection-priority order for same-instant ties.
const (
	Crash Kind = iota
	Slowdown
	Preempt
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Slowdown:
		return "slowdown"
	case Preempt:
		return "preempt"
	}
	return fmt.Sprintf("kind-%d", int(k))
}

// Event is one scheduled fault.
type Event struct {
	At   sim.Time
	Node cluster.NodeID
	Kind Kind
	// Duration is the node's downtime (Crash) or the slowdown span
	// (Slowdown); unused for Preempt.
	Duration sim.Duration
	// Factor is the interference multiplier applied during a Slowdown.
	Factor float64
}

// The fixed shape of a fault timeline. Arrivals stop at horizon (jobs
// outlasting it run fault-free afterwards) or after maxPerNode events
// per node and kind, a guard against degenerate rates. A slowdown applies
// an interference multiplier drawn uniformly from [minSlowFactor,
// maxSlowFactor] for a span drawn exponentially around meanSlowdown.
const (
	horizon       sim.Time     = 14400 // 4 h
	maxPerNode    int          = 64
	meanSlowdown  sim.Duration = 300
	minSlowFactor float64      = 0.2
	maxSlowFactor float64      = 0.5
)

// Plan declares a fault workload. The zero value injects nothing
// (Active reports false); rates are expected events per node-hour, drawn
// as independent Poisson processes per node and per kind up to a 4 h
// horizon, at most 64 events per node and kind.
type Plan struct {
	// CrashRate is expected node crashes per node-hour. A crashed node
	// goes silent, killing everything on it, and restores after a
	// downtime drawn exponentially around MeanDowntime.
	CrashRate float64
	// MeanDowntime is the mean crash downtime in virtual seconds
	// (default 120; floored at 20 so restores stay observable).
	MeanDowntime sim.Duration

	// SlowdownRate is expected transient slowdowns per node-hour; each
	// applies an interference multiplier drawn uniformly from [0.2, 0.5]
	// for a duration drawn exponentially around 300 s.
	SlowdownRate float64

	// PreemptRate is expected container preemptions per node-hour.
	PreemptRate float64
}

// Active reports whether the plan injects any faults. Inactive plans
// cost nothing: runner skips the watcher and injector entirely, keeping
// fault-free runs byte-identical to a build without this package.
func (p Plan) Active() bool {
	return p.CrashRate > 0 || p.SlowdownRate > 0 || p.PreemptRate > 0
}

// withDefaults fills a zero MeanDowntime.
func (p Plan) withDefaults() Plan {
	if p.MeanDowntime <= 0 {
		p.MeanDowntime = 120
	}
	return p
}

// Schedule derives the full fault timeline for an n-node cluster — a
// pure function of (plan, seed, n). Events are sorted by (At, Node,
// Kind) so injection order is deterministic even for same-instant
// arrivals on different nodes.
func (p Plan) Schedule(seed int64, n int) []Event {
	if !p.Active() {
		return nil
	}
	p = p.withDefaults()
	var events []Event
	for i := 0; i < n; i++ {
		events = p.nodeEvents(events, cluster.NodeID(i), randutil.DeriveSeed(seed, i))
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

// nodeEvents appends one node's Poisson arrival streams to out. seed is
// the node's seed; each kind draws from an independent sub-stream split
// from it by label, so enabling one fault kind never perturbs another's
// timeline.
func (p Plan) nodeEvents(out []Event, id cluster.NodeID, seed int64) []Event {
	out = p.arrivals(out, id, seed, "crash", Crash, p.CrashRate)
	out = p.arrivals(out, id, seed, "slowdown", Slowdown, p.SlowdownRate)
	return p.arrivals(out, id, seed, "preempt", Preempt, p.PreemptRate)
}

// arrivals appends one Poisson process of the given per-node-hour rate up
// to the horizon, filling kind-specific payloads. It seeds the kind's
// stream, split from the node's seed by label, only when the rate is
// positive: a kind that is off costs nothing.
func (p Plan) arrivals(out []Event, id cluster.NodeID, seed int64, label string, kind Kind, perHour float64) []Event {
	if perHour <= 0 {
		return out
	}
	rng := randutil.New(randutil.SplitSeed(seed, label))
	perSec := perHour / 3600
	t := sim.Time(0)
	for n := 0; n < maxPerNode; n++ {
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
