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
// policy, and sequences each join and drain-then-release across the
// cluster / RM / watcher / drainer layers (one Drainer for all of a
// run's jobs). The cluster is the one record of membership: it knows
// which spares are joined or draining and bills their joined intervals.
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

	eng     *sim.Engine
	c       *cluster.Cluster
	rm      ResourceManager
	plan    Plan
	spares  []cluster.NodeID
	drainer Drainer
	watcher Watcher

	schedule []Event
	auto     Autoscaler

	// Autoscaler streak/cooldown state.
	highStreak int
	lowStreak  int
	lastAction sim.Time
	acted      bool
}

// NewController builds a controller over the given spare pool (the
// contiguous IDs returned by cluster.AddSpares). Base-fleet nodes —
// every node not in spares — are permanent members and never touched. d
// evicts the run's work from each released node. Call Start to arm.
func NewController(eng *sim.Engine, c *cluster.Cluster, rm ResourceManager, d Drainer, plan Plan, spares []cluster.NodeID) *Controller {
	return &Controller{eng: eng, c: c, rm: rm, drainer: d, plan: plan.withDefaults(), spares: spares}
}

// spare returns the node if id is one of the controller's spares.
func (ctl *Controller) spare(id cluster.NodeID) (*cluster.Node, bool) {
	if len(ctl.spares) == 0 || id < ctl.spares[0] || id > ctl.spares[len(ctl.spares)-1] {
		return nil, false
	}
	return ctl.c.Node(id), true
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
		ctl.drain(ev.Node, ev.Kind)
	}
}

// join brings an offline spare online. Joining an online (or draining)
// node is a no-op, so schedule and autoscaler compose.
func (ctl *Controller) join(id cluster.NodeID) {
	n, ok := ctl.spare(id)
	if !ok || !n.Offline() {
		return
	}
	ctl.c.JoinNode(id, ctl.eng.Now())
	if ctl.watcher != nil {
		ctl.watcher.Register(id)
	}
	ctl.rm.NodeJoined(id)
	ctl.Trace.NodeJoin(id, n.Slots)
}

// drain starts a graceful decommission of kind Drain or Spot: the RM
// stops offering the node and the release fires after the kind's notice.
// Draining an offline or already-draining node is a no-op.
func (ctl *Controller) drain(id cluster.NodeID, kind Kind) {
	n, ok := ctl.spare(id)
	if !ok || n.Offline() || n.Draining() {
		return
	}
	notice := ctl.plan.notice(kind)
	ctl.c.StartDrain(id)
	ctl.Trace.NodeDrain(id, notice, kind == Spot)
	ctl.eng.After(notice, "elastic-release", func() { ctl.release(id) })
}

// release completes a drain at its deadline. Order matters: capacity is
// withdrawn first, the node goes offline (the cluster accrues its joined
// interval and ends the drain; the liveness watcher's sweep drops it),
// and only then does the drainer evict remaining work — the drivers'
// requeues already see the node as unavailable. Committed map output
// survives: a decommission is not a crash, so downstream reducers
// re-fetch nothing.
func (ctl *Controller) release(id cluster.NodeID) {
	n, ok := ctl.spare(id)
	if !ok || !n.Draining() {
		return
	}
	ctl.rm.NodeReleased(id)
	ctl.c.ReleaseNode(id, ctl.eng.Now())
	preempted := ctl.drainer.DrainNode(id)
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
			ctl.drain(id, Drain)
			ctl.lastAction, ctl.acted = now, true
			ctl.highStreak, ctl.lowStreak = 0, 0
		}
	}
}

// scaleOutTarget picks the lowest-ID offline spare.
func (ctl *Controller) scaleOutTarget() (cluster.NodeID, bool) {
	for _, id := range ctl.spares {
		if ctl.c.Node(id).Offline() {
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
	for _, id := range ctl.spares {
		if n := ctl.c.Node(id); n.Offline() || n.Draining() {
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
