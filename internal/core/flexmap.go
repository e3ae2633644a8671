package core

import (
	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/engine"
	"flexmap/internal/randutil"
)

// AM is the FlexMap ApplicationMaster. It replaces stock Hadoop's
// statically-bound fixed splits with elastic tasks:
//
//  1. At submission it indexes the job's BUs in a dfs.Tracker — the
//     NodeToBlock/BlockToNode maps of Late Task Binding. Map templates
//     are implicit: a task materializes only when a container is granted.
//  2. When a slot frees on a node, the AM asks the Sizer for the node's
//     task size (vertical × horizontal scaling), binds that many BUs —
//     node-local first — and launches one multi-block map attempt.
//  3. Heartbeats feed the SpeedMonitor; completed attempts feed
//     productivity back into the Sizer.
//  4. Reducers are dispatched with the capacity-biased c² policy.
//
// FlexMap keeps YARN's speculative execution (it is built on stock
// Hadoop): once every BU is provisioned, idle fast nodes may duplicate a
// straggling elastic task — the safety net for a large task stranded on
// a node whose speed collapsed after dispatch.
type AM struct {
	// Speculation, when non-nil, duplicates stragglers after all BUs are
	// provisioned.
	Speculation engine.SpeculationPolicy

	// Ablation switches (for the design-choice studies in
	// internal/experiments): NoVertical freezes the size unit at one BU,
	// NoHorizontal ignores relative node speed when sizing, and
	// NoReduceBias falls back to stock's even reduce placement.
	NoVertical   bool
	NoHorizontal bool
	NoReduceBias bool

	d       *engine.Driver
	book    *engine.AttemptBook
	tracker *dfs.Tracker
	monitor *SpeedMonitor
	sizer   *Sizer
	rng     *randutil.Source

	nextTask  engine.TaskID
	tasksLeft int // live (incomplete) tasks with attempts in flight

	// fairShare cache: totalRel and oneWave are pure functions of the
	// speed windows (monitor epoch), the size units (sizer epoch), and
	// cluster membership (speed epoch — joins and releases bump it), but
	// the naive recompute is O(nodes) per offer — quadratic per wave at
	// 10k nodes. Valid while all three epochs stand still.
	fsValid     bool
	fsMonAt     uint64
	fsSizerAt   uint64
	fsClusterAt uint64
	fsTotalRel  float64
	fsOneWave   int
}

// NewAM builds the FlexMap AM over the driver. It does not bind itself to
// the RM; the caller does. The rng drives the biased reduce dispatcher's
// rejection sampling.
func NewAM(d *engine.Driver, rng *randutil.Source) (*AM, error) {
	tracker, err := dfs.NewTracker(d.Store, d.Spec.InputFile)
	if err != nil {
		return nil, err
	}
	am := &AM{
		d:       d,
		tracker: tracker,
		monitor: NewSpeedMonitor(d),
		sizer:   NewSizer(),
		rng:     rng,
	}
	am.book = engine.NewAttemptBook(d, am.onMapDone)
	am.book.OnCommit = am.monitor.ReportCompletion
	d.ReducePlacer = am.placeReducers
	d.SetRecovery(am)
	// A rejoining node's pre-crash speed samples are stale (cold caches,
	// restarted daemons): reset its window so sizing starts conservative.
	d.OnNodeRejoin(am.monitor.ResetNode)
	return am, nil
}

// RelativeSpeed returns the node's observed speed normalized to the
// slowest measured node (1.0 when unmeasured) — the signal the elastic
// autoscaler uses to release the slowest joined spare first.
func (am *AM) RelativeSpeed(id cluster.NodeID) float64 {
	return am.monitor.RelativeSpeed(id)
}

// OnSlotFree implements yarn.Scheduler: late task binding, then — once
// every BU is provisioned — speculation on remaining stragglers.
func (am *AM) OnSlotFree(node *cluster.Node) bool {
	if am.d.Finished() || am.d.MapsFinished() {
		return false
	}
	if am.tracker.Remaining() == 0 {
		return am.book.Speculate(am.Speculation, node)
	}
	rel := am.monitor.RelativeSpeed(node.ID)
	if am.NoHorizontal {
		rel = 1
	}
	size := am.sizer.TaskSize(int(node.ID), rel)
	// Endgame provisioning: once the remainder no longer fills a full
	// wave at current sizes, hand it out capacity-proportionally so all
	// nodes finish together — DataProvision's ideal of data proportional
	// to capacity — instead of stranding one full-size task on a slow
	// node after the pool empties.
	fair := am.fairShare(node, rel)
	if size > fair {
		size = fair
	}
	remaining := am.tracker.Remaining()
	if size > remaining {
		size = remaining
	}
	am.d.Trace.SizerDecision(node.ID, rel, am.sizer.SizeUnit(int(node.ID)), fair, remaining, size)
	bus, local := am.tracker.Take(node.ID, size)
	if len(bus) == 0 {
		return false
	}
	id := am.nextTask
	task := engine.MapTaskName(id)
	am.nextTask++
	am.d.Trace.TaskBind(task, node.ID, len(bus), local)
	am.tasksLeft++
	am.book.Launch(engine.MapLaunch{Task: task, TaskID: id, Node: node, BUs: bus, LocalBUs: local})
	return true
}

// Bound implements yarn.Scheduler: no node while every offer would be
// declined with no effect, otherwise unbound. Once every BU is bound,
// every offer is a speculation probe; before that an offer sizes a task
// and traces the decision, so the AM is unbound.
func (am *AM) Bound(dst []cluster.NodeID) ([]cluster.NodeID, bool) {
	return dst[:0], am.d.Finished() || am.d.MapsFinished() ||
		(am.tracker.Remaining() == 0 && am.book.SpeculationIdle(am.Speculation))
}

// fairShare returns this node's capacity-proportional share of the
// remaining BUs when the job is inside its final wave — i.e. when the
// remainder no longer fills every slot at current task sizes. Outside
// the final wave it returns a large value (no clamp). rel is the node's
// RelativeSpeed.
func (am *AM) fairShare(node *cluster.Node, rel float64) int {
	if !am.fsValid || am.fsMonAt != am.monitor.Epoch() || am.fsSizerAt != am.sizer.Epoch() ||
		am.fsClusterAt != am.d.Cluster.SpeedEpoch() {
		var totalRel float64
		oneWave := 0
		// Offline spares are not capacity: counting them would shrink
		// every member's endgame share toward nodes that bind nothing.
		for _, n := range am.d.Cluster.Members() {
			r := am.monitor.RelativeSpeed(n.ID)
			totalRel += r * float64(n.Slots)
			oneWave += n.Slots * am.sizer.TaskSize(int(n.ID), r)
		}
		am.fsValid, am.fsMonAt, am.fsSizerAt = true, am.monitor.Epoch(), am.sizer.Epoch()
		am.fsClusterAt = am.d.Cluster.SpeedEpoch()
		am.fsTotalRel, am.fsOneWave = totalRel, oneWave
	}
	totalRel, oneWave := am.fsTotalRel, am.fsOneWave
	remaining := am.tracker.Remaining()
	if totalRel <= 0 || remaining >= oneWave {
		return remaining // not in the endgame; no clamp
	}
	share := int(float64(remaining)*rel/totalRel) + 1
	// Floor at 4 BUs: decaying into a flood of 8 MB tasks would trade a
	// small tail for massive per-task overhead.
	if share < 4 {
		share = 4
	}
	if share > remaining {
		share = remaining
	}
	return share
}

func (am *AM) onMapDone(a *engine.MapAttempt) {
	if !am.book.Win(a) {
		return
	}
	am.tasksLeft--

	// Vertical scaling feedback from this attempt's productivity (Eq. 1):
	// effective runtime (everything but container+JVM overhead) over
	// total runtime.
	if !am.NoVertical {
		runtime := float64(am.d.Eng.Now() - a.Start)
		productivity := 0.0
		if runtime > 0 {
			productivity = (runtime - float64(engine.Overhead)) / runtime
		}
		am.sizer.ApplyFeedback(int(a.Node.ID), len(a.BUs), productivity)
	}

	if am.tracker.Remaining() == 0 && am.tasksLeft == 0 {
		am.d.MapsDone()
	}
}

// placeReducers implements §III-F: node i's dispatch bias is c_i² where
// c_i is capacity normalized to the fastest node. A reducer repeatedly
// picks a uniformly random node and accepts it with probability c_i²,
// steering reducers toward the fast nodes that hold most intermediate
// data.
func (am *AM) placeReducers(d *engine.Driver) []cluster.NodeID {
	if am.NoReduceBias {
		return engine.EvenReducePlacer(d)
	}
	// Sample over members only: an offline spare must neither receive a
	// reducer nor consume rejection-sampling draws. On a static fleet the
	// member list is the whole fleet, so the draw sequence is unchanged.
	nodes := d.Cluster.Members()
	assigned := make(map[cluster.NodeID]int, d.Spec.NumReducers)
	out := make([]cluster.NodeID, d.Spec.NumReducers)
	for r := range out {
		out[r] = am.pickBiased(r, nodes, am.monitor.Capacity, assigned)
	}
	return out
}

// pickBiased places one reducer among nodes. caps gives a node's
// normalized capacity; assigned holds the current wave's reducer counts
// of the nodes given one.
func (am *AM) pickBiased(partition int, nodes []*cluster.Node, caps func(cluster.NodeID) float64, assigned map[cluster.NodeID]int) cluster.NodeID {
	// Rejection sampling terminates: at least one node has c=1 (the
	// fastest), accepted with probability 1. A capacity guard skips
	// nodes whose reducer count already fills their current-wave slots;
	// when every node is full a new wave begins and the per-wave counts
	// reset, so the guard (and the c² shape it bounds) applies to every
	// wave — not just the first, with later waves degenerating to raw
	// sampling.
	full := func(n *cluster.Node) bool { return assigned[n.ID] >= n.Slots }
	allFull := true
	for _, n := range nodes {
		if !full(n) {
			allFull = false
			break
		}
	}
	if allFull {
		clear(assigned)
	}
	for i := 0; i < 10000; i++ {
		n := nodes[am.rng.Intn(len(nodes))]
		if full(n) {
			continue
		}
		c := caps(n.ID)
		if am.rng.Float64() <= c*c {
			assigned[n.ID]++
			if am.d != nil {
				am.d.Trace.ReducePlace(partition, n.ID, c*c, i+1, false)
			}
			return n.ID
		}
	}
	// Bail-out after a pathological draw streak: take the least-loaded
	// non-full node (lowest assigned/slots, ties to the lowest ID) rather
	// than unconditionally dumping the partition on nodes[0].
	var best *cluster.Node
	for _, n := range nodes {
		if full(n) {
			continue
		}
		if best == nil || assigned[n.ID]*best.Slots < assigned[best.ID]*n.Slots {
			best = n
		}
	}
	if best == nil {
		best = nodes[0]
	}
	assigned[best.ID]++
	if am.d != nil {
		c := caps(best.ID)
		am.d.Trace.ReducePlace(partition, best.ID, c*c, 10000, true)
	}
	return best.ID
}
