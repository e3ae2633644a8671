// Package elastic generates seeded, deterministic cluster-membership
// schedules — spare nodes joining, draining out gracefully, or being
// reclaimed as spot capacity with short notice — and applies them to a
// running job through an elastic Controller. An optional Autoscaler
// policy drives membership from ResourceManager occupancy instead of a
// precomputed timeline.
//
// A Plan is declarative, mirroring internal/faults: Schedule derives the
// complete membership timeline as a pure function of (plan, seed, node
// IDs). Each spare draws from one stream, seeded from
// randutil.SplitSeed(randutil.DeriveSeed(seed, id), "membership"). The same
// plan and seed always produce the same schedule, whether generated
// before or during a run, serially or across worker goroutines. The
// schedule is replayable: it can be inspected, logged, or re-injected
// into another run unchanged.
package elastic

import (
	"fmt"
	"sort"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
)

// Kind is a membership event type.
type Kind int

// Membership kinds, in application-priority order for same-instant ties:
// a join applies before a leave so a join/leave pair at one instant
// leaves the node drained, not stuck offline with a pending release.
const (
	// Join brings an offline spare online as a full cluster member.
	Join Kind = iota
	// Drain starts a planned scale-in: no new binds, running work
	// finishes or hands off within Plan.Notice, then the node releases.
	Drain
	// Spot is a spot-instance reclaim: the same drain-then-release
	// sequence under the much shorter Plan.SpotNotice.
	Spot
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Join:
		return "join"
	case Drain:
		return "drain"
	case Spot:
		return "spot"
	}
	return fmt.Sprintf("kind-%d", int(k))
}

// Event is one scheduled membership change.
type Event struct {
	At   sim.Time
	Node cluster.NodeID
	Kind Kind
}

// The autoscaler's fixed watermarks: a tick whose busy/slots ratio is at
// or above highWater counts toward scale-out, one at or below lowWater
// toward scale-in.
const (
	highWater float64 = 0.875
	lowWater  float64 = 0.25
)

// Autoscaler is a reactive scale-out/scale-in policy evaluated on a
// fixed tick against RM occupancy: a streak of ticks at or above 7/8
// busy slots scales out, one at or below 1/4 scales in. The zero value
// of every knob picks the documented default, so &Autoscaler{} is a
// usable policy.
type Autoscaler struct {
	// Interval is the evaluation period (default 60 s).
	Interval sim.Duration
	// Streak is how many consecutive qualifying ticks trigger an action
	// (default 3) — a debounce against transient wave boundaries.
	Streak int
	// Cooldown is the minimum gap between actions (default 180 s), so a
	// fresh join's effect is observable before the next decision.
	Cooldown sim.Duration
}

// withDefaults fills zero-valued knobs.
func (a Autoscaler) withDefaults() Autoscaler {
	if a.Interval <= 0 {
		a.Interval = 60
	}
	if a.Streak <= 0 {
		a.Streak = 3
	}
	if a.Cooldown <= 0 {
		a.Cooldown = 180
	}
	return a
}

// The seeded timeline's fixed bounds: event times stop at horizon (jobs
// outlasting it see a static fleet afterwards), and each spare gets at
// most maxPerNode events, a guard against degenerate rates.
const (
	horizon    sim.Time = 14400 // 4 h
	maxPerNode int      = 64
)

// Plan declares an elastic-membership workload over a pool of spare
// nodes provisioned with cluster.AddSpares. The zero value changes
// nothing (Active reports false); rates are expected events per
// node-hour, drawn as independent renewal processes per spare up to a
// 4 h horizon, at most 64 events per spare.
type Plan struct {
	// Spares is the number of spare nodes to provision (offline at start).
	Spares int
	// SpareSpec describes the spare hardware; zero fields default like
	// NewCluster (2 slots, speed 1.0, name "spare-NN").
	SpareSpec cluster.NodeSpec

	// JoinsPerHour is the expected join arrivals per offline spare-hour.
	JoinsPerHour float64
	// LeavesPerHour is the expected departure arrivals per joined
	// spare-hour; each departure is a Spot reclaim with probability
	// SpotFraction, else a planned Drain.
	LeavesPerHour float64
	// SpotFraction is the probability a scheduled departure is a spot
	// reclaim (short notice) rather than a planned drain.
	SpotFraction float64

	// Notice is the drain grace before a planned release (default 120 s).
	Notice sim.Duration
	// SpotNotice is the reclaim grace before a spot release (default 30 s,
	// the cloud-provider ballpark scaled to simulation time).
	SpotNotice sim.Duration

	// Script is an explicit event timeline applied in addition to (or
	// instead of) the seeded schedule — the "scheduled fleet" mode.
	// Events must target provisioned spares; Schedule merges and sorts
	// them with the drawn events.
	Script []Event

	// Autoscale, when non-nil, drives membership reactively from RM
	// occupancy instead of (or on top of) the precomputed timeline.
	Autoscale *Autoscaler
}

// Active reports whether the plan changes membership at all. Inactive
// plans cost nothing: runner provisions no spares and skips the
// controller entirely, keeping static-fleet runs byte-identical to a
// build without this package.
func (p Plan) Active() bool {
	return p.Spares > 0 && (p.JoinsPerHour > 0 || len(p.Script) > 0 || p.Autoscale != nil)
}

// withDefaults fills zero-valued knobs.
func (p Plan) withDefaults() Plan {
	if p.Notice <= 0 {
		p.Notice = 120
	}
	if p.SpotNotice <= 0 {
		p.SpotNotice = 30
	}
	return p
}

// notice returns the drain grace for a departure kind.
func (p Plan) notice(k Kind) sim.Duration {
	if k == Spot {
		return p.SpotNotice
	}
	return p.Notice
}

// Schedule derives the full membership timeline for the given spare IDs
// — a pure function of (plan, seed, spares). Each spare alternates an
// offline→join arrival (rate JoinsPerHour) with a joined→departure
// arrival (rate LeavesPerHour), so a node's timeline is always a legal
// join/leave/join/… sequence. Events are sorted by (At, Node, Kind) so
// application order is deterministic even for same-instant arrivals.
// Script events ride along unsorted-input, same ordering rules.
func (p Plan) Schedule(seed int64, spares []cluster.NodeID) []Event {
	if !p.Active() {
		return nil
	}
	p = p.withDefaults()
	var events []Event
	if p.JoinsPerHour > 0 {
		for _, id := range spares {
			rng := randutil.New(randutil.SplitSeed(randutil.DeriveSeed(seed, int(id)), "membership"))
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

// nodeEvents draws one spare's alternating join/departure renewal
// process up to the horizon.
func (p Plan) nodeEvents(id cluster.NodeID, rng *randutil.Source) []Event {
	joinPerSec := p.JoinsPerHour / 3600
	leavePerSec := p.LeavesPerHour / 3600
	var out []Event
	t := sim.Time(0)
	joined := false
	for len(out) < maxPerNode {
		if !joined {
			t += sim.Time(rng.ExpFloat64() / joinPerSec)
			if t > horizon {
				break
			}
			out = append(out, Event{At: t, Node: id, Kind: Join})
			joined = true
			continue
		}
		if leavePerSec <= 0 {
			break // joins forever, never leaves
		}
		t += sim.Time(rng.ExpFloat64() / leavePerSec)
		if t > horizon {
			break
		}
		kind := Drain
		if rng.Float64() < p.SpotFraction {
			kind = Spot
		}
		out = append(out, Event{At: t, Node: id, Kind: kind})
		joined = false
	}
	return out
}
