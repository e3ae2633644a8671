// Package cluster models heterogeneous MapReduce clusters: worker nodes
// with distinct processing speeds, container slots, and time-varying
// interference, plus the three testbed profiles evaluated in the FlexMap
// paper (12-node physical, 20-node virtual, 40-node multi-tenant).
//
// A node's effective speed is BaseSpeed × interference multiplier. The
// multiplier is piecewise-constant in virtual time; interference processes
// change it, and the cluster's one speed hook (the run's executor, set
// with Cluster.OnSpeedChange) re-plans the completion events of the work
// running on that node.
package cluster

import (
	"fmt"
	"math"

	"flexmap/internal/maputil"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
)

// NodeID identifies a worker node within a cluster.
type NodeID int

// Node is a single worker machine.
type Node struct {
	ID    NodeID
	Name  string
	Class string // machine model, e.g. "PowerEdge T430"

	// BaseSpeed is the node's relative processing capability with the
	// slowest hardware generation at 1.0. It never changes.
	BaseSpeed float64

	// Slots is the number of containers the node can run concurrently.
	Slots int

	interference float64  // current multiplier in (0,1]; 1 = no interference
	down         bool     // crashed (fault injection); no heartbeats, no work
	offline      bool     // provisioned but not a cluster member (elastic spare)
	c            *Cluster // owner: speed epoch and speed hook
}

// Down reports whether the node is unavailable for work. A down node
// sends no NodeManager heartbeats, accepts no containers, and every task
// running on it at crash time is dead (the AM only learns via
// heartbeat-timeout detection — see internal/yarn's NodeWatcher).
// Offline spares report down too: every "skip unavailable capacity"
// check in the scheduler stack applies to not-yet-joined nodes as well.
func (n *Node) Down() bool { return n.down || n.offline }

// Offline reports whether the node is a provisioned-but-unjoined elastic
// spare (or a released former member). Distinct from a crash: an offline
// node is absent by plan, so liveness watchers must not declare it lost.
func (n *Node) Offline() bool { return n.offline }

// SetDown marks the node crashed or restored. It only flips the flag:
// killing resident work and reconciling RM capacity are the fault
// injector's and watcher's jobs, keeping the node model mechanism-free.
func (n *Node) SetDown(down bool) {
	if down != n.down {
		n.down = down
		n.c.speedEpoch++
	}
}

// Speed returns the node's current effective speed.
func (n *Node) Speed() float64 { return n.BaseSpeed * n.interference }

// Interference returns the current interference multiplier in (0,1].
func (n *Node) Interference() float64 { return n.interference }

// SetInterference updates the interference multiplier and calls the
// cluster's speed hook, if set. Values outside (0,1] panic: a multiplier
// above 1 would mean interference speeds the node up.
func (n *Node) SetInterference(mult float64) {
	if mult <= 0 || mult > 1 {
		panic(fmt.Sprintf("cluster: interference multiplier %v out of (0,1]", mult))
	}
	if mult == n.interference {
		return
	}
	n.interference = mult
	n.c.speedEpoch++
	if n.c.onSpeed != nil {
		n.c.onSpeed(n)
	}
}

// TopologySpec describes a two-level fat-tree fabric: hosts attach to
// top-of-rack switches whose uplinks into the core can be oversubscribed.
// Racks are contiguous NodeID blocks — rack r holds nodes
// [r*HostsPerRack, (r+1)*HostsPerRack). Every host access link runs at
// Cluster.NetBW in each direction.
type TopologySpec struct {
	// HostsPerRack is the rack width; the last rack may be partial.
	HostsPerRack int

	// Oversub is the ToR uplink oversubscription ratio: each rack's
	// uplink/downlink capacity is NetBW × HostsPerRack / Oversub, so 1
	// gives full bisection bandwidth and 4 means four racks' worth of
	// hosts contend for one rack's worth of core capacity. Zero means 1.
	Oversub float64
}

// Validate rejects geometries that would produce empty racks or links
// whose capacity is zero, negative or not finite (which turn transfer
// times into +Inf/NaN).
func (t *TopologySpec) Validate(netBW float64) error {
	if t.HostsPerRack < 1 {
		return fmt.Errorf("cluster: topology HostsPerRack %d < 1", t.HostsPerRack)
	}
	if !(netBW > 0) || math.IsInf(netBW, 0) {
		return fmt.Errorf("cluster: topology host bandwidth %v MB/s is not positive and finite", netBW)
	}
	if !(t.Oversub >= 0) || math.IsInf(t.Oversub, 0) {
		return fmt.Errorf("cluster: topology oversubscription %v is not finite and non-negative", t.Oversub)
	}
	if ov := t.Oversub; ov != 0 {
		if rackBW := netBW * float64(t.HostsPerRack) / ov; rackBW <= 0 {
			return fmt.Errorf("cluster: topology rack link capacity %v MB/s is not positive", rackBW)
		}
	}
	return nil
}

// Cluster is a named set of worker nodes plus shared fabric parameters.
type Cluster struct {
	Name  string
	Nodes []*Node

	// NetBW is the per-flow network bandwidth in MB/s used for remote
	// block reads and shuffle fetches. The paper's testbeds use 10 Gbps
	// Ethernet (~1250 MB/s).
	NetBW float64

	// Topology, when non-nil, replaces the flat contention-free network
	// model with the topology-aware fabric in internal/net: per-link
	// capacities and max-min fair sharing across concurrent flows. Nil
	// keeps the legacy flat model, byte-identical to earlier versions.
	Topology *TopologySpec

	// slab is the contiguous backing array for Nodes: one allocation for
	// the whole fleet so 10k-node sweeps walk a flat cache-friendly block
	// instead of chasing individually heap-allocated nodes.
	slab []Node

	// speedEpoch increments on every effective-speed or liveness change
	// of any node. Consumers (e.g. the LATE slow-node percentile) key
	// caches on it: equal epoch means every node speed is unchanged.
	speedEpoch uint64
	// onSpeed is called after any node's interference multiplier changes.
	onSpeed func(*Node)

	// totalSlots is the slot count over cluster *members* (online nodes).
	// Per-node slot counts never change, but elastic membership moves
	// whole nodes in and out of the total via JoinNode/ReleaseNode.
	totalSlots int
}

// SpeedEpoch returns the cluster-wide speed epoch: it increments whenever
// any node's interference multiplier or down flag changes, so a cached
// speed-derived value is valid exactly while the epoch stands still.
func (c *Cluster) SpeedEpoch() uint64 { return c.speedEpoch }

// OnSpeedChange sets the hook called whenever a node's interference
// multiplier changes. A cluster has one hook — the run's executor — so a
// second call panics: it is a wiring bug, not a runtime condition.
func (c *Cluster) OnSpeedChange(fn func(*Node)) {
	if c.onSpeed != nil {
		panic("cluster: OnSpeedChange called twice")
	}
	c.onSpeed = fn
}

// NewCluster builds a cluster from node specs. Each spec contributes one
// node; slots default to 2 and base speed to 1.0 when zero. Nodes are
// stored in one contiguous slab (struct-of-arrays friendly: dense IDs
// index both Nodes and every per-node slice in the scheduler stack).
func NewCluster(name string, specs []NodeSpec) *Cluster {
	c := &Cluster{Name: name, NetBW: 1250}
	c.slab = make([]Node, len(specs))
	c.Nodes = make([]*Node, 0, len(specs))
	for i, s := range specs {
		speed := s.BaseSpeed
		if speed == 0 {
			speed = 1.0
		}
		if speed < 0 || s.Slots < 0 {
			panic(fmt.Sprintf("cluster: node %d has negative speed or slots", i))
		}
		slots := s.Slots
		if slots == 0 {
			slots = 2
		}
		nodeName := s.Name
		if nodeName == "" {
			nodeName = fmt.Sprintf("node-%02d", i)
		}
		c.slab[i] = Node{
			ID:           NodeID(i),
			Name:         nodeName,
			Class:        s.Class,
			BaseSpeed:    speed,
			Slots:        slots,
			interference: 1.0,
			c:            c,
		}
		c.slab[i].offline = s.Offline
		c.Nodes = append(c.Nodes, &c.slab[i])
		if !s.Offline {
			c.totalSlots += slots
		}
	}
	return c
}

// NodeSpec describes one node to NewCluster.
type NodeSpec struct {
	Name      string
	Class     string
	BaseSpeed float64
	Slots     int
	// Offline provisions the node as an elastic spare: it occupies a
	// NodeID (so topology racks are fixed for the whole run) but is not a
	// member until JoinNode brings it online.
	Offline bool
}

// AddSpares appends n offline spare nodes cut from the given spec
// (zero-value fields default like NewCluster: 2 slots, speed 1.0) and
// returns their IDs. Spares extend the tail of the NodeID space, so
// contiguous rack blocks stay consistent. Call before any per-node state
// is sized off the cluster — in practice immediately after the cluster
// factory, before the DFS, RM, watcher or fabric are built.
func (c *Cluster) AddSpares(n int, spec NodeSpec) []NodeID {
	if n <= 0 {
		return nil
	}
	speed := spec.BaseSpeed
	if speed == 0 {
		speed = 1.0
	}
	slots := spec.Slots
	if slots == 0 {
		slots = 2
	}
	if speed < 0 || slots < 0 {
		panic("cluster: spare spec has negative speed or slots")
	}
	spares := make([]Node, n)
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		id := NodeID(len(c.Nodes))
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("spare-%02d", i)
		} else {
			name = fmt.Sprintf("%s-%02d", spec.Name, i)
		}
		spares[i] = Node{
			ID:           id,
			Name:         name,
			Class:        spec.Class,
			BaseSpeed:    speed,
			Slots:        slots,
			interference: 1.0,
			offline:      true,
			c:            c,
		}
		c.Nodes = append(c.Nodes, &spares[i])
		ids[i] = id
	}
	return ids
}

// JoinNode brings an offline spare online: it becomes a member, its
// slots join the total, and the speed epoch advances so every cached
// speed-derived percentile re-reads the fleet. Joining an online node is
// a no-op (the autoscaler and a scheduled plan may race benignly).
func (c *Cluster) JoinNode(id NodeID) {
	n := c.Node(id)
	if !n.offline {
		return
	}
	n.offline = false
	c.totalSlots += n.Slots
	c.speedEpoch++
}

// ReleaseNode returns a member to the offline pool (elastic scale-in or
// spot reclaim). Releasing an offline node is a no-op. The node keeps
// its identity: re-provisioning the same NodeID later is a fresh join.
func (c *Cluster) ReleaseNode(id NodeID) {
	n := c.Node(id)
	if n.offline {
		return
	}
	n.offline = true
	c.totalSlots -= n.Slots
	c.speedEpoch++
}

// Size returns the number of provisioned worker nodes, online or not.
func (c *Cluster) Size() int { return len(c.Nodes) }

// LiveSize returns the number of cluster members (online nodes).
func (c *Cluster) LiveSize() int {
	live := 0
	for _, n := range c.Nodes {
		if !n.offline {
			live++
		}
	}
	return live
}

// TotalSlots returns the number of container slots over cluster members.
func (c *Cluster) TotalSlots() int { return c.totalSlots }

// Node returns the node with the given ID. It panics on an unknown ID —
// node IDs are dense indices assigned by NewCluster.
func (c *Cluster) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(c.Nodes) {
		panic(fmt.Sprintf("cluster: unknown node %d", id))
	}
	return c.Nodes[id]
}

// Interferer perturbs node speeds over virtual time. Start arms its
// events on the engine; Stop disarms them.
type Interferer interface {
	Start(eng *sim.Engine)
	Stop()
}

// staticInterferer applies fixed multipliers once at start.
type staticInterferer struct {
	mults map[NodeID]float64
	c     *Cluster
}

// NewStaticInterference returns an Interferer that pins the given nodes to
// fixed multipliers for the whole run (multi-tenant co-runner model).
func NewStaticInterference(c *Cluster, mults map[NodeID]float64) Interferer {
	return &staticInterferer{mults: mults, c: c}
}

func (s *staticInterferer) Start(eng *sim.Engine) {
	// Sorted iteration: SetInterference calls the cluster's speed hook,
	// so application order must not depend on map iteration order.
	for _, id := range maputil.SortedKeys(s.mults) {
		s.c.Node(id).SetInterference(s.mults[id])
	}
}

func (s *staticInterferer) Stop() {}

// RandomInterference models a shared cloud: a fixed fraction Prob of the
// fleet is interfered at any instant (severity drawn from
// [MinMult, MaxMult]), matching the paper's observation that about 20%
// of the virtual cluster's map tasks were slowed. Interference is
// *persistent with drift*: every Period seconds each interfered node
// migrates to a random clear node with probability Drift, so hotspots
// move during a job — as the paper notes for its university cloud — but
// most co-located tenants stay put.
type RandomInterference struct {
	Cluster *Cluster
	Period  sim.Duration // drift period, e.g. 60 s
	Prob    float64      // fraction of the fleet interfered at any instant
	Drift   float64      // probability an interfered node migrates each period (default 1)
	MinMult float64      // harshest slowdown multiplier, e.g. 0.2 (5× slower)
	MaxMult float64      // mildest slowdown multiplier, e.g. 0.5 (2× slower)
	RNG     *randutil.Source

	ticker *sim.Ticker
}

// severity draws an interference multiplier.
func (r *RandomInterference) severity() float64 {
	return r.MinMult + r.RNG.Float64()*(r.MaxMult-r.MinMult)
}

// Start arms the interference process: an immediate roll interfering
// exactly round(Prob × N) nodes, plus periodic drift migrating hotspots.
func (r *RandomInterference) Start(eng *sim.Engine) {
	if r.Period <= 0 {
		r.Period = 30
	}
	if r.Drift <= 0 {
		r.Drift = 1.0
	}
	n := r.Cluster.Size()
	k := int(r.Prob*float64(n) + 0.5)
	if k > n {
		k = n
	}
	eng.After(0, "interference-initial", func() {
		for _, idx := range r.RNG.PickN(n, k) {
			r.Cluster.Nodes[idx].SetInterference(r.severity())
		}
	})
	r.ticker = sim.NewTicker(eng, r.Period, "interference-drift", func(sim.Time) {
		var clear []*Node
		for _, node := range r.Cluster.Nodes {
			if node.Interference() == 1.0 {
				clear = append(clear, node)
			}
		}
		for _, node := range r.Cluster.Nodes {
			if node.Interference() < 1.0 && r.RNG.Float64() < r.Drift && len(clear) > 0 {
				// The co-located tenant moves: this node clears, a random
				// clear node becomes the new hotspot.
				i := r.RNG.Intn(len(clear))
				target := clear[i]
				clear = append(clear[:i], clear[i+1:]...)
				node.SetInterference(1.0)
				target.SetInterference(r.severity())
			}
		}
	})
}

// Stop halts future re-rolls; current multipliers remain.
func (r *RandomInterference) Stop() {
	if r.ticker != nil {
		r.ticker.Stop()
	}
}
