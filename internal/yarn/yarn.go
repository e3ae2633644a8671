// Package yarn models the YARN resource-management layer: per-node
// container slots, a ResourceManager that offers free slots to the job's
// ApplicationMaster, and container handles that release capacity back.
//
// The model follows YARN's CapacityScheduler behaviour: container
// assignment is driven by NodeManager heartbeats, and at most one
// container is assigned per node per heartbeat (the scheduler's default
// assignMultiple=false). AssignDelay is that heartbeat period; it is real
// dead time between tasks and part of why fine-grained tasks are
// expensive. The AM either places a task on an offered slot or declines,
// leaving the slot idle until Poke re-offers idle capacity — which AMs
// call when new work appears (e.g. SkewTune mints repartitioned
// subtasks) and when a wait they armed expires (the stock AM's locality
// wait). A scheduler names the only nodes it can act on (Bound), and
// Poke offers just those, or skips its sweep when there are none: every
// offer would be declined with no effect, so the sweep cannot land.
package yarn

import (
	"fmt"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
)

// Scheduler is the decision side of an ApplicationMaster. OnSlotFree must
// return true if it placed work on the node (consuming one slot, to be
// returned via Container.Release).
//
// Bound returns true with the nodes, in ascending ID order, that
// OnSlotFree can act on at this instant: every other node it would
// decline with no side effect, meaning no grant, no scheduled event, no
// trace emit and no RNG draw. Updating a cache that is a pure function of
// the state it reads is not a side effect. An empty set means it would
// decline every node so; Poke then skips its sweep. Bound returns false
// when it cannot name such a set, and false is always safe: Poke then
// sweeps every node. A scheduler whose decline can act (arm a wait,
// repartition) must return false whenever it might. The result is
// appended to dst[:0].
type Scheduler interface {
	OnSlotFree(node *cluster.Node) bool
	Bound(dst []cluster.NodeID) ([]cluster.NodeID, bool)
}

// AssignDelay is the NodeManager heartbeat period: successive container
// grants on one node are at least this far apart, and a released slot is
// re-offered after this delay.
const AssignDelay sim.Duration = 1

// RM is the ResourceManager for one simulated job run.
type RM struct {
	eng     *sim.Engine
	cluster *cluster.Cluster
	sched   Scheduler

	// Per-node hot state is struct-of-arrays: flat slices indexed by the
	// dense NodeID. offerFns holds one preallocated heartbeat callback
	// per node so the steady-state offer chain — the most frequent event
	// class in a run — schedules without a fresh closure allocation.
	free           []int
	offerScheduled []bool
	lastGrant      []sim.Time
	granted        []bool
	offerFns       []func()
	nextCID        int
	started        bool

	// stamp numbers Poke's calls; sweep is the stamp of the innermost
	// Poke whose node loop is running, 0 outside every loop. InterJob
	// keys the Bound answers it records to the stamp, so they hold only
	// for that loop.
	stamp, sweep uint64

	// bounds holds one node buffer per Poke nesting depth, pokes is that
	// depth.
	bounds [][]cluster.NodeID
	pokes  int

	// inter, when set by NewInterJob, is told of every grant, release,
	// node loss and restore, to attribute containers to jobs.
	inter *InterJob
}

// NewRM creates a ResourceManager over the cluster with all slots free.
func NewRM(eng *sim.Engine, c *cluster.Cluster) *RM {
	rm := &RM{
		eng:            eng,
		cluster:        c,
		free:           make([]int, c.Size()),
		offerScheduled: make([]bool, c.Size()),
		lastGrant:      make([]sim.Time, c.Size()),
		granted:        make([]bool, c.Size()),
		offerFns:       make([]func(), c.Size()),
	}
	for i, n := range c.Nodes {
		// Offline elastic spares register no capacity until NodeJoined.
		if !n.Offline() {
			rm.free[n.ID] = n.Slots
		}
		id := n.ID
		rm.offerFns[i] = func() {
			rm.offerScheduled[id] = false
			rm.offerNow(rm.cluster.Node(id))
		}
	}
	return rm
}

// SetScheduler registers the ApplicationMaster. Must be called before
// Start.
func (rm *RM) SetScheduler(s Scheduler) {
	rm.sched = s
}

// Start begins offering capacity: one immediate offer per node, with
// subsequent grants paced by AssignDelay. It panics if no scheduler is
// registered.
func (rm *RM) Start() {
	if rm.sched == nil {
		panic("yarn: Start before SetScheduler")
	}
	rm.started = true
	rm.Poke()
}

// FreeSlots returns the number of currently free slots on a node.
func (rm *RM) FreeSlots(id cluster.NodeID) int { return rm.freeAt(id) }

// TotalFree returns the number of free slots cluster-wide.
func (rm *RM) TotalFree() int {
	total := 0
	for _, v := range rm.free {
		total += v
	}
	return total
}

// Poke re-offers idle capacity on every node immediately. AMs call it
// when new schedulable work appears. When the scheduler names its bound,
// Poke offers only those nodes, in ascending ID order, and returns
// without a sweep when the bound is empty. Either skip also skips
// offerNow's pacing branch, which is a no-op because every up,
// non-draining node with free capacity inside its pacing window already
// has an offer armed (DESIGN.md §11). A Poke from inside an offer runs
// its loop inside the outer one, so the outer loop's stamp is restored
// on return, and each nesting depth keeps its own bound buffer. Bound is
// asked before the stamp becomes the sweep, so offers made from inside
// Bound (an audit) are not sweep offers.
func (rm *RM) Poke() {
	if !rm.started {
		return
	}
	rm.stamp++
	stamp := rm.stamp
	if rm.pokes == len(rm.bounds) {
		rm.bounds = append(rm.bounds, nil)
	}
	nodes, bounded := rm.sched.Bound(rm.bounds[rm.pokes])
	rm.bounds[rm.pokes] = nodes
	if bounded && len(nodes) == 0 {
		return
	}
	outer := rm.sweep
	rm.sweep = stamp
	rm.pokes++
	if bounded {
		for _, id := range nodes {
			rm.offerNow(rm.cluster.Node(id))
		}
	} else {
		for _, n := range rm.cluster.Nodes {
			rm.offerNow(n)
		}
	}
	rm.pokes--
	rm.sweep = outer
}

// freeAt returns the free-slot count for a node, 0 for unknown IDs.
func (rm *RM) freeAt(id cluster.NodeID) int {
	if int(id) < 0 || int(id) >= len(rm.free) {
		return 0
	}
	return rm.free[id]
}

// offerNow makes at most one offer on the node; if it is accepted and
// capacity remains, the next offer is paced one heartbeat later. Grants
// on one node are globally paced: no two grants land within AssignDelay,
// no matter how often the AM pokes.
func (rm *RM) offerNow(n *cluster.Node) {
	if !rm.started || rm.free[n.ID] <= 0 || n.Down() || n.Draining() {
		// A down node sends no NodeManager heartbeats, so it makes no
		// offers; capacity is reconciled wholesale by NodeRestored. A
		// draining node keeps heartbeating but its slots are being
		// decommissioned: running containers finish, free slots idle.
		return
	}
	now := rm.eng.Now()
	if rm.granted[n.ID] {
		if wait := rm.lastGrant[n.ID] + sim.Time(AssignDelay) - now; wait > 0 {
			rm.scheduleOffer(n.ID, sim.Duration(wait))
			return
		}
	}
	if rm.sched.OnSlotFree(n) && rm.free[n.ID] > 0 {
		rm.scheduleOffer(n.ID, AssignDelay)
	}
}

// scheduleOffer arms a single delayed offer per node (no parallel chains),
// reusing the node's preallocated callback. Offers stay one event per node, not one batched sweep:
// same-instant offers interleave with work-done and release events in
// (time, seq) order, and collapsing them into a sweep would reorder
// scheduler decisions against those events.
func (rm *RM) scheduleOffer(id cluster.NodeID, delay sim.Duration) {
	if rm.offerScheduled[id] {
		return
	}
	rm.offerScheduled[id] = true
	rm.eng.After(delay, "nm-heartbeat", rm.offerFns[id])
}

// NodeLost removes a node's capacity from the pool: the NodeWatcher
// declares it after the node misses enough consecutive heartbeats. Any
// containers granted on the node died with it; their handles are simply
// abandoned (Release on a down node is a no-op), so the inter-job
// scheduler writes them off here.
func (rm *RM) NodeLost(id cluster.NodeID) {
	rm.free[id] = 0
	if rm.inter != nil {
		rm.inter.purgeNode(id)
	}
}

// NodeRestored re-registers a node after a crash: every slot is free
// again (all containers died at crash time) and offers resume at the
// next heartbeat.
func (rm *RM) NodeRestored(id cluster.NodeID) {
	rm.free[id] = rm.cluster.Node(id).Slots
	if rm.inter != nil {
		rm.inter.purgeNode(id)
	}
	if rm.started {
		rm.scheduleOffer(id, AssignDelay)
	}
}

// NodeJoined registers an elastic join: the node's slots enter the pool
// and offers begin at the next heartbeat. The elastic controller flips
// the cluster-side membership before calling this.
func (rm *RM) NodeJoined(id cluster.NodeID) {
	rm.free[id] = rm.cluster.Node(id).Slots
	if rm.started {
		rm.scheduleOffer(id, AssignDelay)
	}
}

// NodeReleased withdraws a drained node's capacity entirely — the
// elastic counterpart of NodeLost, minus the crash semantics. Any
// containers still granted are being preempted by the caller; their
// handles release as no-ops once the node is offline.
func (rm *RM) NodeReleased(id cluster.NodeID) { rm.free[id] = 0 }

// Occupancy reports granted and total slots over schedulable members:
// offline, down, and draining nodes contribute nothing, so the
// autoscaler reads the load on exactly the capacity that can take work.
func (rm *RM) Occupancy() (busy, slots int) {
	for _, n := range rm.cluster.Nodes {
		if n.Down() || n.Draining() {
			continue
		}
		slots += n.Slots
		busy += n.Slots - rm.free[n.ID]
	}
	return busy, slots
}

// Acquire consumes one slot on the node and grants it into c. The caller
// owns c's storage (an attempt embeds its container), so a grant
// allocates nothing. Schedulers call it from inside OnSlotFree after
// deciding to place work. It panics if the node has no free slot — the
// offer protocol guarantees one exists.
func (rm *RM) Acquire(n *cluster.Node, c *Container) {
	if rm.free[n.ID] <= 0 {
		panic(fmt.Sprintf("yarn: Acquire on node %d with no free slots", n.ID))
	}
	rm.free[n.ID]--
	rm.lastGrant[n.ID] = rm.eng.Now()
	rm.granted[n.ID] = true
	rm.nextCID++
	*c = Container{ID: rm.nextCID, Node: n, rm: rm}
	if rm.inter != nil {
		rm.inter.onGrant(c)
	}
}

// Container is a granted slot on a node.
type Container struct {
	ID   int
	Node *cluster.Node

	rm       *RM
	released bool
}

// Release returns the slot to the RM; it is re-offered at the node's next
// heartbeat. Releasing twice panics: it would double-count capacity.
// Releasing a container on a down node frees no capacity — the container
// died with the node and NodeRestored reconciles capacity wholesale — but
// still retires it from the inter-job scheduler's counts.
func (c *Container) Release() {
	if c.released {
		panic(fmt.Sprintf("yarn: container %d released twice", c.ID))
	}
	c.released = true
	if c.rm.inter != nil {
		c.rm.inter.onRelease(c)
	}
	if c.Node.Down() {
		return
	}
	c.rm.free[c.Node.ID]++
	c.rm.scheduleOffer(c.Node.ID, AssignDelay)
}

// Released reports whether the container has been released.
func (c *Container) Released() bool { return c.released }
