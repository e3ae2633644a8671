package yarn

import (
	"flexmap/internal/cluster"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
)

// Liveness timing: NodeManagers heartbeat every 5 seconds and a node
// missing 3 consecutive beats is declared lost, so failure detection
// latency is at most DefaultMissThreshold × DefaultLivenessPeriod (+ up
// to one tick of phase).
const (
	DefaultLivenessPeriod sim.Duration = 5
	DefaultMissThreshold               = 3
)

// NodeWatcher is the RM's liveness tracker: it observes NodeManager
// heartbeats every DefaultLivenessPeriod and declares a node lost after
// DefaultMissThreshold consecutive missed beats. When a lost (or briefly down)
// node heartbeats again it is re-registered with the RM and rejoin
// callbacks fire — the hook engine.FaultTarget uses to deliver crashed
// work to a run's drivers, and through them the FlexMap AM's reset of
// the node's stale speed window.
//
// Without fault injection no node ever goes down, so a watcher is pure
// overhead; runner only creates one when the fault plan is active. Its
// ticker runs until the engine stops, at the run's last job's finish.
//
// Membership is read from the cluster: an offline node (an elastic spare
// not yet joined, or a released member) is skipped by the sweep, so its
// silence is never "detected" as a loss and an outage it suffers while
// offline fires no rejoin. Register re-enrolls a node at its join.
type NodeWatcher struct {
	// Trace, when non-nil, records loss declarations and rejoins.
	Trace *trace.Tracer

	eng *sim.Engine
	c   *cluster.Cluster
	rm  *RM
	// Per-node liveness state is struct-of-arrays: flat slices indexed
	// by the dense NodeID, walked contiguously by the batched sweep.
	lastBeat []sim.Time
	lost     []bool
	wasDown  []bool
	onLost   []func(cluster.NodeID)
	onRejoin []func(cluster.NodeID)
}

// NewNodeWatcher starts liveness tracking over the cluster. All nodes are
// assumed live at start.
func NewNodeWatcher(eng *sim.Engine, c *cluster.Cluster, rm *RM) *NodeWatcher {
	w := &NodeWatcher{
		eng:      eng,
		c:        c,
		rm:       rm,
		lastBeat: make([]sim.Time, c.Size()),
		lost:     make([]bool, c.Size()),
		wasDown:  make([]bool, c.Size()),
	}
	for _, n := range c.Nodes {
		w.lastBeat[n.ID] = eng.Now()
	}
	sim.NewTicker(eng, DefaultLivenessPeriod, "nm-liveness", w.tick)
	return w
}

// OnLost registers a callback fired when a node is declared lost.
func (w *NodeWatcher) OnLost(fn func(cluster.NodeID)) { w.onLost = append(w.onLost, fn) }

// OnRejoin registers a callback fired when a down node heartbeats again —
// after a declared loss or a brief outage shorter than the timeout.
func (w *NodeWatcher) OnRejoin(fn func(cluster.NodeID)) { w.onRejoin = append(w.onRejoin, fn) }

// Register (re-)enrolls a node in liveness tracking at an elastic join:
// the heartbeat clock starts fresh at now, so the node gets the full
// timeout before any loss declaration, and no rejoin fires for outages
// that predate its membership, a loss declared before its release
// included.
func (w *NodeWatcher) Register(id cluster.NodeID) {
	w.lost[id] = false
	w.wasDown[id] = false
	w.lastBeat[id] = w.eng.Now()
}

// tick is one heartbeat round: one batched timer event sweeping every
// node in cluster order instead of one event per node. A node's outcome
// depends only on its own lastBeat/lost/wasDown/Down, and the loss and
// rejoin callbacks never mutate another node's liveness state, so the
// round equals the per-node loop it replaces: same-instant detections and
// rejoins fire in cluster order.
func (w *NodeWatcher) tick(now sim.Time) {
	timeout := DefaultLivenessPeriod * DefaultMissThreshold
	for _, node := range w.c.Nodes {
		if node.Offline() {
			continue
		}
		id := node.ID
		if !node.Down() {
			declared := w.lost[id]
			rejoin := declared || w.wasDown[id]
			w.lost[id] = false
			w.wasDown[id] = false
			w.lastBeat[id] = now
			if rejoin {
				// Re-registration: the restored node's first heartbeat. Even
				// after an outage too brief to be declared, its containers
				// died, so capacity is reconciled and rejoin hooks fire.
				w.Trace.FaultRecover(id, declared)
				w.rm.NodeRestored(id)
				for _, fn := range w.onRejoin {
					fn(id)
				}
			}
			continue
		}
		w.wasDown[id] = true
		if !w.lost[id] && sim.Duration(now-w.lastBeat[id]) >= timeout {
			w.lost[id] = true
			w.Trace.FaultDetect(id)
			w.rm.NodeLost(id)
			for _, fn := range w.onLost {
				fn(id)
			}
		}
	}
}
