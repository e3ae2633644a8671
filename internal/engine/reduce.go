package engine

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"flexmap/internal/cluster"
	"flexmap/internal/mr"
	"flexmap/internal/net"
	"flexmap/internal/sim"
	"flexmap/internal/yarn"
)

// EvenReducePlacer is stock Hadoop's policy: reducers dispatched evenly
// (round-robin) across cluster members regardless of capacity or data
// locality. Offline elastic spares are not members and get nothing; on a
// static fleet the member list is the whole fleet, byte-identical to the
// pre-elastic round-robin.
func EvenReducePlacer(d *Driver) []cluster.NodeID {
	members := d.Cluster.Members()
	out := make([]cluster.NodeID, d.Spec.NumReducers)
	for i := range out {
		out[i] = members[i%len(members)].ID
	}
	return out
}

// MapsDone is called by the AM when every map task has completed. It
// closes the map phase and either finishes the job (map-only) or starts
// the reduce phase. It is a no-op after FailJob.
func (d *Driver) MapsDone() {
	if d.finished && d.Result.Failed {
		return
	}
	if d.mapsFinished {
		panic("engine: MapsDone called twice")
	}
	d.mapsFinished = true
	d.resident = nil // no node loss drops output from here on
	d.Result.MapPhaseEnd = d.Eng.Now()
	if d.Spec.NumReducers == 0 {
		d.finishJob()
		return
	}
	d.beginReducePhase()
}

// MapsFinished reports whether the map phase has closed.
func (d *Driver) MapsFinished() bool { return d.mapsFinished }

func (d *Driver) beginReducePhase() {
	assign := d.ReducePlacer(d)
	if len(assign) != d.Spec.NumReducers {
		panic("engine: reduce placer returned wrong assignment length")
	}
	d.reduceRemaining = d.Spec.NumReducers
	d.reduceRuns = make([]reduceRun, d.Spec.NumReducers)
	d.reduceNames = itoa4s("reduce-", d.Spec.NumReducers)
	d.reduceQueues = make(map[cluster.NodeID][]int)
	var displaced []int
	for p, nid := range assign {
		// Partitions placed on a currently-down node are rerouted to live
		// nodes (never happens without fault injection).
		if d.Cluster.Node(nid).Down() {
			displaced = append(displaced, p)
			continue
		}
		d.queueReduce(nid, p)
	}
	if len(displaced) > 0 {
		d.requeueReduces(displaced)
	}
	if d.ReduceViaRM {
		// Reduce capacity is arbitrated by the RM like any container:
		// nudge the offer machinery and let TryReduce take grants.
		d.RM.Poke()
		return
	}
	// Start up to Slots reducers per node; the rest run in later waves.
	for _, n := range d.Cluster.Nodes {
		d.pumpReduces(n)
	}
}

// pumpReduces fills the node's free reduce slots from its queue, then
// from the orphan pool (partitions stranded when every node was down).
// In ReduceViaRM mode capacity flows through offers instead, so pumping
// reduces to poking the RM.
func (d *Driver) pumpReduces(n *cluster.Node) {
	if d.ReduceViaRM {
		d.RM.Poke()
		return
	}
	if n.Down() || d.finished {
		return
	}
	for len(d.runningReduce[n.ID]) < n.Slots {
		p, ok := d.nextReduce(n.ID)
		if !ok {
			return
		}
		d.runReduce(p, n)
	}
}

// TryReduce consumes one offered slot for a queued reduce partition —
// the ReduceViaRM dispatch path, called by the workload runner's
// per-job scheduler when the AM has no map work for the offer. Order
// mirrors pumpReduces: the node's own queue first, then orphans.
func (d *Driver) TryReduce(n *cluster.Node) bool {
	if !d.ReduceViaRM || !d.mapsFinished || d.finished {
		return false
	}
	p, ok := d.nextReduce(n.ID)
	if !ok {
		return false
	}
	d.runReduce(p, n)
	return true
}

// ReduceNodes appends to dst[:0], in ascending ID order, the nodes
// TryReduce can take a slot on: those with a queued partition. There are
// none when reduces are not routed through the RM, the map phase is
// open, the job is done, or no partition is queued or orphaned. It
// reports false when an orphaned partition lets TryReduce take any node.
func (d *Driver) ReduceNodes(dst []cluster.NodeID) ([]cluster.NodeID, bool) {
	dst = dst[:0]
	if !d.ReduceViaRM || !d.mapsFinished || d.finished || d.reduceQueued+len(d.orphanReduces) == 0 {
		return dst, true
	}
	if len(d.orphanReduces) > 0 {
		return dst, false
	}
	for id, q := range d.reduceQueues {
		if len(q) > 0 {
			dst = append(dst, id)
		}
	}
	slices.Sort(dst)
	return dst, true
}

// queueReduce appends partition p to the node's reduce queue.
func (d *Driver) queueReduce(id cluster.NodeID, p int) {
	d.reduceQueues[id] = append(d.reduceQueues[id], p)
	d.reduceQueued++
}

// nextReduce dequeues the next partition for the node: its own queue
// first, then the orphan pool.
func (d *Driver) nextReduce(id cluster.NodeID) (int, bool) {
	if q := d.reduceQueues[id]; len(q) > 0 {
		d.reduceQueues[id] = q[1:]
		d.reduceQueued--
		return q[0], true
	}
	if len(d.orphanReduces) > 0 {
		p := d.orphanReduces[0]
		d.orphanReduces = d.orphanReduces[1:]
		return p, true
	}
	return 0, false
}

// unqueueReduces empties the node's reduce queue and returns what it
// held.
func (d *Driver) unqueueReduces(id cluster.NodeID) []int {
	q := d.reduceQueues[id]
	delete(d.reduceQueues, id)
	d.reduceQueued -= len(q)
	return q
}

// requeueReduces redistributes displaced reduce partitions round-robin
// over live nodes (orphaning them if the whole cluster is down) and
// pumps the receiving nodes.
func (d *Driver) requeueReduces(parts []int) {
	if len(parts) == 0 {
		return
	}
	var up []*cluster.Node
	for _, n := range d.Cluster.Nodes {
		if !n.Down() {
			up = append(up, n)
		}
	}
	if len(up) == 0 {
		d.orphanReduces = append(d.orphanReduces, parts...)
		return
	}
	for i, p := range parts {
		d.queueReduce(up[i%len(up)].ID, p)
	}
	for _, n := range up {
		d.pumpReduces(n)
	}
}

// reduceRun is one in-flight reduce attempt, cancelable on node crash.
// Its phases are those of a map attempt: the overhead (which includes
// the fetch under the flat model), the shuffle under the fabric, and
// compute.
type reduceRun struct {
	d         *Driver
	step      func() // advance, bound once at launch
	p         int
	name      string // reduce-NNNN, formatted once per attempt
	node      *cluster.Node
	start     sim.Time
	partBytes int64
	phase     attemptPhase
	ev        sim.Handle     // the pending reduce-fetch event
	work      Work           // the compute phase
	container yarn.Container // the slot it holds in ReduceViaRM mode
	flows     []*net.Flow    // in-flight shuffle streams (topology model)
	flowsLeft int
}

// newReduceRun hands out zeroed storage for one reduce attempt. The
// reduce phase starts with a chunk of one attempt per partition; crash
// retries take later chunks of a quarter of that.
func (d *Driver) newReduceRun() *reduceRun {
	if len(d.reduceRuns) == 0 {
		d.reduceRuns = make([]reduceRun, max(1, d.Spec.NumReducers/4))
	}
	rr := &d.reduceRuns[0]
	d.reduceRuns = d.reduceRuns[1:]
	return rr
}

// crash cancels the attempt when its node dies: a crashed AttemptRecord
// is logged and the partition is stashed for requeue at delivery time.
func (rr *reduceRun) crash() {
	d := rr.d
	rr.ev.Cancel()
	for _, fl := range rr.flows {
		d.Net.Cancel(fl)
	}
	rr.flows = nil
	if rr.phase == phaseCompute {
		d.Exec.Cancel(&rr.work)
	}
	d.detachReduce(rr)
	now := d.Eng.Now()
	d.Result.Attempts = append(d.Result.Attempts, mr.AttemptRecord{
		Task:     rr.name,
		Type:     mr.ReduceTask,
		Node:     rr.node.ID,
		Start:    rr.start,
		End:      now,
		Overhead: Overhead,
		Bytes:    rr.partBytes,
		Killed:   true,
		Crashed:  true,
	})
	d.Result.AttemptsCrashed++
	d.Result.TaskRetries++
	d.Trace.TaskKill(rr.name, rr.node.ID, true)
	d.crashedReduces[rr.node.ID] = append(d.crashedReduces[rr.node.ID], rr.p)
	if d.ReduceViaRM && !rr.container.Released() {
		// The node is down, so this frees no capacity — it only retires
		// the container so inter-job accounting writes it off.
		rr.container.Release()
	}
}

// detachReduce removes the run from the node's in-flight bookkeeping.
func (d *Driver) detachReduce(rr *reduceRun) {
	list := d.runningReduce[rr.node.ID]
	for i, other := range list {
		if other == rr {
			d.runningReduce[rr.node.ID] = append(list[:i], list[i+1:]...)
			break
		}
	}
}

// runReduce executes one reduce attempt: overhead, shuffle fetch of the
// remote share of its partition, then merge+reduce compute. In
// ReduceViaRM mode the attempt holds an RM container for its lifetime.
func (d *Driver) runReduce(p int, n *cluster.Node) {
	partBytes := d.totalInter / int64(d.Spec.NumReducers)
	rr := d.newReduceRun()
	*rr = reduceRun{d: d, p: p, name: d.reduceNames[p], node: n, start: d.Eng.Now(), partBytes: partBytes}
	if d.ReduceViaRM {
		d.RM.Acquire(n, &rr.container)
	}
	rr.step = rr.advance
	d.runningReduce[n.ID] = append(d.runningReduce[n.ID], rr)
	d.Trace.ReduceDispatch(rr.name, n.ID, partBytes)

	// Under the fabric the shuffle starts when the overhead ends; the
	// flat model folds the fetch of the remote share into that event.
	delay := Overhead
	if d.Net == nil {
		remote := max(partBytes-d.interOn(n.ID)/int64(d.Spec.NumReducers), 0)
		delay += sim.Duration(float64(remote) / (d.Cluster.NetBW * float64(MB)))
	}
	rr.ev = d.Eng.After(delay, "reduce-fetch", rr.step)
}

// advance is the reduce attempt's one event callback, bound once at
// launch as step. It runs at the reduce-fetch event, as each fabric
// shuffle stream drains, and at work-done.
func (rr *reduceRun) advance() {
	switch rr.phase {
	case phaseOverhead:
		if rr.d.Net == nil {
			rr.compute()
			return
		}
		rr.startShuffle()
	case phaseFetch:
		if rr.flowsLeft--; rr.flowsLeft > 0 {
			return
		}
		rr.flows = nil
		rr.compute()
	case phaseCompute:
		rr.d.Exec.finish(&rr.work)
		rr.finish()
	}
}

// compute starts the merge+reduce work, or finishes at once when the
// partition costs nothing.
func (rr *reduceRun) compute() {
	units := float64(rr.partBytes) * rr.d.Spec.ReduceCost
	if units <= 0 {
		rr.finish()
		return
	}
	rr.phase = phaseCompute
	rr.d.Exec.Start(&rr.work, rr.node, units, rr.step)
}

// finish records the completed attempt and pumps the node's next reduce.
func (rr *reduceRun) finish() {
	d := rr.d
	rr.phase = phaseDone
	// Return capacity before the finished check: a job aborted by
	// FailJob must not strand slots its reducers were holding, or a
	// shared cluster slowly wedges.
	if d.ReduceViaRM && !rr.container.Released() {
		rr.container.Release()
	}
	if d.finished {
		return
	}
	d.detachReduce(rr)
	now := d.Eng.Now()
	d.Result.Attempts = append(d.Result.Attempts, mr.AttemptRecord{
		Task:      rr.name,
		Type:      mr.ReduceTask,
		Node:      rr.node.ID,
		Start:     rr.start,
		End:       now,
		Overhead:  Overhead,
		Effective: sim.Duration(now-rr.start) - Overhead,
		Bytes:     rr.partBytes,
	})
	d.Trace.TaskDone(rr.name, rr.node.ID, rr.partBytes)
	d.reduceRemaining--
	if d.reduceRemaining == 0 {
		d.runLiveReducers()
		d.finishJob()
		return
	}
	d.pumpReduces(rr.node)
}

// startShuffle moves the partition's remote share through the topology
// fabric as two aggregate streams: the part already resident in the
// reducer's own rack and the part crossing the oversubscribed core.
// Per-source flows would be O(nodes × reducers); aggregating keeps the
// flow population at ≤2 per reducer while still loading exactly the links
// a placement policy controls (the destination's access link and its
// rack's core downlink).
func (rr *reduceRun) startShuffle() {
	d := rr.d
	n := rr.node
	R := int64(d.Spec.NumReducers)
	rack := d.Net.RackOf(n.ID)
	rackShare := d.rackIntermediate(rack) / R
	localShare := d.interOn(n.ID) / R
	intra := rackShare - localShare
	cross := rr.partBytes - rackShare
	if intra < 0 {
		intra = 0
	}
	if cross < 0 {
		cross = 0
	}
	rr.phase = phaseFetch
	if intra > 0 {
		rr.flows = append(rr.flows, d.Net.StartAggFlow(rack, n.ID, intra, rr.name, rr.step))
	}
	if cross > 0 {
		rr.flows = append(rr.flows, d.Net.StartAggFlow(net.AllRemoteRacks, n.ID, cross, rr.name, rr.step))
	}
	rr.flowsLeft = len(rr.flows)
	if rr.flowsLeft == 0 {
		rr.compute()
	}
}

// rackIntermediate sums the committed intermediate bytes resident on a
// rack's nodes.
func (d *Driver) rackIntermediate(rack int) int64 {
	var sum int64
	d.nodes.Each(func(id cluster.NodeID, n *jobNode) {
		if n.inter != 0 && d.Net.RackOf(id) == rack {
			sum += n.inter
		}
	})
	return sum
}

// itoa4 returns prefix followed by the non-negative v formatted as
// fmt's %04d: zero-padded to four digits, every digit of a larger value
// kept. It allocates only the result.
func itoa4(prefix string, v int) string {
	var buf [32]byte
	return string(appendItoa4(buf[:0], prefix, v))
}

// appendItoa4 appends itoa4(prefix, v) to b.
func appendItoa4(b []byte, prefix string, v int) []byte {
	b = append(b, prefix...)
	for pad := 1000; pad > 1 && v < pad; pad /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(v), 10)
}

// itoa4s returns itoa4(prefix, i) for every i in [0, n). The names are
// substrings of one string, so naming a job's n tasks takes two
// allocations, not n.
func itoa4s(prefix string, n int) []string {
	var buf [32]byte
	width := func(v int) int { return len(appendItoa4(buf[:0], prefix, v)) }
	total := 0
	for i := range n {
		total += width(i)
	}
	var b strings.Builder
	b.Grow(total)
	for i := range n {
		b.Write(appendItoa4(buf[:0], prefix, i))
	}
	all := b.String()
	names := make([]string, n)
	for i := range names {
		names[i], all = all[:width(i)], all[width(i):]
	}
	return names
}

// runLiveReducers executes attached real reduce functions over the
// partitioned intermediate data, merging output into Result.Output.
func (d *Driver) runLiveReducers() {
	if d.Spec.Reducer == nil || d.partitions == nil {
		return
	}
	if d.Result.Output == nil {
		d.Result.Output = make(map[string]string)
	}
	emit := func(k, v string) { d.Result.Output[k] = v }
	for _, part := range d.partitions {
		keys := make([]string, 0, len(part))
		for k := range part {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			d.Spec.Reducer(k, part[k], emit)
		}
	}
}

func (d *Driver) finishJob() {
	if d.finished {
		if d.Result.Failed {
			return
		}
		panic("engine: job finished twice")
	}
	d.finished = true
	now := d.Eng.Now()
	if d.Spec.NumReducers > 0 {
		d.Result.ReducePhaseEnd = now
	}
	d.Result.Finished = now
	for _, fn := range d.onFinished {
		fn()
	}
}

// Finished reports whether the job has fully completed.
func (d *Driver) Finished() bool { return d.finished }
