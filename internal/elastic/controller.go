package elastic

import (
	"flexmap/internal/cluster"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
)

// ResourceManager is the capacity-registration surface the controller
// drives. *yarn.RM implements it; tests substitute fakes.
type ResourceManager interface {
	// NodeJoined registers a fresh member's slots; offers begin at the
	// next heartbeat.
	NodeJoined(id cluster.NodeID)
	// DrainNode stops new offers on the node while running containers
	// finish.
	DrainNode(id cluster.NodeID)
	// NodeReleased withdraws the node's capacity entirely.
	NodeReleased(id cluster.NodeID)
	// Occupancy reports granted and total slots over schedulable members.
	Occupancy() (busy, slots int)
}

// Drainer evicts work still resident on a node at its release deadline.
// *engine.FaultTarget implements it over all of a run's job drivers; the
// returned count is the map attempts preempted — 0 for a graceful drain.
type Drainer interface {
	DrainNode(id cluster.NodeID) int
}

// Watcher is the liveness-membership surface: a joining node restarts
// its heartbeat clock. A released node needs no call, since the watcher
// skips offline nodes. *yarn.NodeWatcher implements it.
type Watcher interface {
	Register(id cluster.NodeID)
}

// Controller applies an elastic plan to a running simulation: it arms
// the precomputed membership timeline, runs the optional autoscaler
// policy, sequences each join and drain-then-release across the cluster
// / RM / watcher / drainer layers (one Drainer for all of a run's jobs),
// and accounts node-hours so runs can report cost next to makespan.
//
// Joining an online spare and draining an offline one are no-ops, so a
// scheduled timeline and the autoscaler compose without coordination.
// Its events end with the run: the engine stop at the last job's finish
// drops every membership event, pending release and autoscaler tick.
type Controller struct {
	// Trace, when non-nil, records each membership change applied.
	Trace *trace.Tracer
	// Speeds, when non-nil, reports a node's observed relative speed;
	// the autoscaler releases the slowest joined spare first. Without it
	// scale-in picks the highest-ID joined spare.
	Speeds func(id cluster.NodeID) float64

	eng      *sim.Engine
	c        *cluster.Cluster
	rm       ResourceManager
	plan     Plan
	spares   []cluster.NodeID
	spareIdx map[cluster.NodeID]int
	drainer  Drainer
	watcher  Watcher

	// Per-spare membership state, indexed like spares.
	joined   []bool
	draining []bool
	joinedAt []sim.Time
	// Accrued spare usage from completed join→release intervals.
	nodeSecs []float64

	baseNodes int
	baseSlots int
	schedule  []Event
	auto      Autoscaler

	// Autoscaler streak/cooldown state.
	highStreak int
	lowStreak  int
	lastAction sim.Time
	acted      bool

	// Joins / Drains / Releases count membership changes actually
	// applied (no-op events excluded).
	Joins    int
	Drains   int
	Releases int
}

// NewController builds a controller over the given spare pool (the IDs
// returned by cluster.AddSpares). Base-fleet nodes — every node not in
// spares — are permanent members and never touched. d evicts the run's
// work from each released node. Call Start to arm.
func NewController(eng *sim.Engine, c *cluster.Cluster, rm ResourceManager, d Drainer, plan Plan, spares []cluster.NodeID) *Controller {
	ctl := &Controller{
		eng:      eng,
		c:        c,
		rm:       rm,
		drainer:  d,
		plan:     plan.withDefaults(),
		spares:   spares,
		spareIdx: make(map[cluster.NodeID]int, len(spares)),
		joined:   make([]bool, len(spares)),
		draining: make([]bool, len(spares)),
		joinedAt: make([]sim.Time, len(spares)),
		nodeSecs: make([]float64, len(spares)),
	}
	for i, id := range spares {
		ctl.spareIdx[id] = i
	}
	for _, n := range c.Nodes {
		if _, isSpare := ctl.spareIdx[n.ID]; !isSpare {
			ctl.baseNodes++
			ctl.baseSlots += n.Slots
		}
	}
	return ctl
}

// SetWatcher wires the liveness watcher, when one exists (fault plans).
func (ctl *Controller) SetWatcher(w Watcher) { ctl.watcher = w }

// Start arms the seeded timeline and, if the plan has a policy, the
// autoscaler tick.
func (ctl *Controller) Start(seed int64) {
	ctl.schedule = ctl.plan.Schedule(seed, ctl.spares)
	for _, ev := range ctl.schedule {
		ev := ev
		ctl.eng.At(ev.At, "elastic-"+ev.Kind.String(), func() { ctl.apply(ev) })
	}
	if ctl.plan.Autoscale != nil {
		ctl.auto = ctl.plan.Autoscale.withDefaults()
		sim.NewTicker(ctl.eng, ctl.auto.Interval, "autoscale-tick", ctl.autoscaleTick)
	}
}

// apply performs one scheduled membership event.
func (ctl *Controller) apply(ev Event) {
	switch ev.Kind {
	case Join:
		ctl.join(ev.Node)
	case Drain, Spot:
		ctl.drain(ev.Node, ev.Kind == Spot)
	}
}

// join brings an offline spare online. Joining an online or draining
// node is a no-op, so schedule and autoscaler compose.
func (ctl *Controller) join(id cluster.NodeID) {
	i, ok := ctl.spareIdx[id]
	if !ok || ctl.joined[i] || ctl.draining[i] {
		return
	}
	ctl.joined[i] = true
	ctl.joinedAt[i] = ctl.eng.Now()
	ctl.c.JoinNode(id)
	if ctl.watcher != nil {
		ctl.watcher.Register(id)
	}
	ctl.rm.NodeJoined(id)
	ctl.Joins++
	ctl.Trace.NodeJoin(id, ctl.c.Node(id).Slots)
}

// drain starts a graceful decommission: the RM stops offering the node
// and the release fires after the notice. Draining an offline or
// already-draining node is a no-op.
func (ctl *Controller) drain(id cluster.NodeID, spot bool) {
	i, ok := ctl.spareIdx[id]
	if !ok || !ctl.joined[i] || ctl.draining[i] {
		return
	}
	notice := ctl.plan.Notice
	if spot {
		notice = ctl.plan.SpotNotice
	}
	ctl.draining[i] = true
	ctl.rm.DrainNode(id)
	ctl.Drains++
	ctl.Trace.NodeDrain(id, notice, spot)
	ctl.eng.After(notice, "elastic-release", func() { ctl.release(id) })
}

// release completes a drain at its deadline. Order matters: usage is
// accrued and capacity withdrawn first, the node goes offline (which
// also drops it from the liveness watcher's sweep), and only then does
// the drainer evict remaining work — the drivers' requeues already see
// the node as unavailable. Committed map output survives: a
// decommission is not a crash, so downstream reducers re-fetch nothing.
func (ctl *Controller) release(id cluster.NodeID) {
	i, ok := ctl.spareIdx[id]
	if !ok || !ctl.draining[i] {
		return
	}
	ctl.nodeSecs[i] += float64(ctl.eng.Now() - ctl.joinedAt[i])
	ctl.joined[i] = false
	ctl.draining[i] = false
	ctl.rm.NodeReleased(id)
	ctl.c.ReleaseNode(id)
	preempted := ctl.drainer.DrainNode(id)
	ctl.Releases++
	ctl.Trace.NodeRelease(id, preempted)
}

// autoscaleTick evaluates the policy against current occupancy.
func (ctl *Controller) autoscaleTick(now sim.Time) {
	busy, slots := ctl.rm.Occupancy()
	if slots <= 0 {
		return
	}
	ratio := float64(busy) / float64(slots)
	if ratio >= highWater {
		ctl.highStreak++
	} else {
		ctl.highStreak = 0
	}
	if ratio <= lowWater {
		ctl.lowStreak++
	} else {
		ctl.lowStreak = 0
	}
	if ctl.acted && sim.Duration(now-ctl.lastAction) < ctl.auto.Cooldown {
		return
	}
	if ctl.highStreak >= ctl.auto.Streak {
		if id, ok := ctl.scaleOutTarget(); ok {
			ctl.Trace.Autoscale("scale-out", id, busy, slots)
			ctl.join(id)
			ctl.lastAction, ctl.acted = now, true
			ctl.highStreak, ctl.lowStreak = 0, 0
		}
		return
	}
	if ctl.lowStreak >= ctl.auto.Streak {
		if id, ok := ctl.scaleInTarget(); ok {
			ctl.Trace.Autoscale("scale-in", id, busy, slots)
			ctl.drain(id, false)
			ctl.lastAction, ctl.acted = now, true
			ctl.highStreak, ctl.lowStreak = 0, 0
		}
	}
}

// scaleOutTarget picks the lowest-ID offline, non-draining spare.
func (ctl *Controller) scaleOutTarget() (cluster.NodeID, bool) {
	for i, id := range ctl.spares {
		if !ctl.joined[i] && !ctl.draining[i] {
			return id, true
		}
	}
	return 0, false
}

// scaleInTarget picks the joined spare to release: the slowest by the
// Speeds observer when wired (ties to the highest ID, so the choice is
// deterministic), else simply the highest-ID joined spare.
func (ctl *Controller) scaleInTarget() (cluster.NodeID, bool) {
	best, bestSpeed, found := cluster.NodeID(0), 0.0, false
	for i, id := range ctl.spares {
		if !ctl.joined[i] || ctl.draining[i] {
			continue
		}
		speed := 0.0
		if ctl.Speeds != nil {
			speed = ctl.Speeds(id)
		}
		if !found || speed < bestSpeed || (speed == bestSpeed && id > best) {
			best, bestSpeed, found = id, speed, true
		}
	}
	return best, found
}

// NodeHours returns machine-hours consumed through the given instant:
// base nodes run the whole span, spares only their joined intervals.
// This is the cost axis of the autoscale experiment's frontier.
func (ctl *Controller) NodeHours(until sim.Time) float64 {
	total := float64(ctl.baseNodes) * float64(until)
	for i := range ctl.spares {
		total += ctl.nodeSecs[i]
		if ctl.joined[i] {
			total += float64(until - ctl.joinedAt[i])
		}
	}
	return total / 3600
}

// SlotSeconds returns slot-seconds of provisioned capacity through the
// given instant — the utilization denominator for elastic runs, where
// cluster.TotalSlots() × span would overcount intervals with spares out.
func (ctl *Controller) SlotSeconds(until sim.Time) float64 {
	total := float64(ctl.baseSlots) * float64(until)
	for i, id := range ctl.spares {
		slots := float64(ctl.c.Node(id).Slots)
		total += ctl.nodeSecs[i] * slots
		if ctl.joined[i] {
			total += float64(until-ctl.joinedAt[i]) * slots
		}
	}
	return total
}
