package engine

import (
	"fmt"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
)

// Work is a unit of computation running on a node whose speed may change
// mid-flight. The executor re-plans its completion event whenever the
// node's effective speed changes, so completion times integrate the
// piecewise-constant speed curve exactly.
//
// A Work lives in its owner's storage — a map attempt or reduce run
// embeds one — and its completion event calls the owner's own callback,
// so starting and re-planning work allocates nothing.
type Work struct {
	node  *cluster.Node
	seq   uint64  // creation order, for deterministic re-planning
	total float64 // work units (bytes × cost multiplier)
	done  float64 // units completed as of lastSync
	rate  float64 // units/second at lastSync

	lastSync sim.Time
	ev       sim.Handle
	fire     func() // the owner's work-done callback; it calls finish first
	finished bool
	canceled bool
}

// ProcessedUnits returns the units completed by virtual time now.
func (w *Work) ProcessedUnits(now sim.Time) float64 {
	if w.finished {
		return w.total
	}
	p := w.done + w.rate*float64(now-w.lastSync)
	if p > w.total {
		p = w.total
	}
	return p
}

// sync folds elapsed progress into done at the current time.
func (w *Work) sync(now sim.Time) {
	w.done = w.ProcessedUnits(now)
	w.lastSync = now
}

// plan (re)schedules the completion event from the current state.
// Canceling a handle whose event already fired or was never scheduled is
// a no-op, so no pending-state bookkeeping is needed.
func (w *Work) plan(eng *sim.Engine) {
	w.ev.Cancel()
	if w.finished || w.canceled {
		return
	}
	remaining := w.total - w.done
	if w.rate <= 0 {
		panic(fmt.Sprintf("engine: work on node %d has non-positive rate %v", w.node.ID, w.rate))
	}
	w.ev = eng.After(sim.Duration(remaining/w.rate), "work-done", w.fire)
}

// Executor runs Works on cluster nodes with dynamic speeds. A run has one
// executor, shared by every job's driver: it is the cluster's speed hook,
// and re-plans all of a node's running works when that node's speed
// changes.
//
// Per-node state is struct-of-arrays: running works live in flat slices
// indexed by the dense NodeID, kept in creation (seq) order — appends go
// at the tail because seq is monotonic and removal shifts in place — so
// re-planning after a speed change walks the slice directly with no sort
// and no allocation.
type Executor struct {
	eng     *sim.Engine
	clus    *cluster.Cluster
	baseIPS float64
	nextSeq uint64
	running [][]*Work // per node, ascending Work.seq
}

// NewExecutor builds the executor for a run on the cluster and installs
// it as the cluster's speed hook, so it panics if the cluster already
// has one.
func NewExecutor(eng *sim.Engine, c *cluster.Cluster, baseIPS float64) *Executor {
	x := &Executor{
		eng:     eng,
		clus:    c,
		baseIPS: baseIPS,
		running: make([][]*Work, c.Size()),
	}
	// A node runs at most one work per slot: cut each node's list from
	// one array. A list that outgrows its slots moves out on append.
	slots := 0
	for _, n := range c.Nodes {
		slots += n.Slots
	}
	all := make([]*Work, slots)
	for _, n := range c.Nodes {
		x.running[n.ID], all = all[:0:n.Slots], all[n.Slots:]
	}
	c.OnSpeedChange(x.onSpeedChange)
	return x
}

func (x *Executor) onSpeedChange(n *cluster.Node) {
	now := x.eng.Now()
	// Re-plan in creation order across every job's works: plan()
	// re-enqueues each completion event, and the sim queue breaks
	// same-timestamp ties by insertion sequence. The per-node slice is
	// maintained in seq order, so iterating it directly is that order.
	for _, w := range x.running[n.ID] {
		w.sync(now)
		w.rate = x.rateOn(n)
		w.plan(x.eng)
	}
}

// rateOn returns the node's current processing rate in units/second.
func (x *Executor) rateOn(n *cluster.Node) float64 {
	return x.baseIPS * n.Speed()
}

// Start begins `units` of work on a node in the caller-owned w, and
// schedules fire as its "work-done" event, re-planned at every speed
// change of the node. fire must call finish(w) before anything else.
func (x *Executor) Start(w *Work, n *cluster.Node, units float64, fire func()) {
	if units <= 0 {
		panic("engine: work units must be positive")
	}
	x.nextSeq++
	*w = Work{
		node:     n,
		seq:      x.nextSeq,
		total:    units,
		rate:     x.rateOn(n),
		lastSync: x.eng.Now(),
		fire:     fire,
	}
	x.running[n.ID] = append(x.running[n.ID], w)
	w.plan(x.eng)
}

// finish settles w at its work-done event: progress is complete and the
// node no longer re-plans it.
func (x *Executor) finish(w *Work) {
	w.sync(x.eng.Now())
	w.finished = true
	x.detach(w)
}

// Cancel stops a running work; its callback never fires. Canceling
// finished or already-canceled work is a no-op.
func (x *Executor) Cancel(w *Work) {
	if w == nil || w.finished || w.canceled {
		return
	}
	w.sync(x.eng.Now())
	w.canceled = true
	w.ev.Cancel()
	x.detach(w)
}

// detach removes w from its node's running slice, preserving seq order.
func (x *Executor) detach(w *Work) {
	s := x.running[w.node.ID]
	for i, cand := range s {
		if cand == w {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			x.running[w.node.ID] = s[:len(s)-1]
			return
		}
	}
}
