package engine

import (
	"slices"
	"sort"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/mr"
	"flexmap/internal/yarn"
)

// RecoveryHandler is the AM side of crash recovery. The driver invokes it
// when a node's death is *delivered* — at heartbeat-timeout detection or
// at an earlier rejoin, whichever comes first — never at the instant of
// the crash, which the AM cannot observe.
//
// crashed holds the node's map attempts that died (in task order);
// lostOutput holds committed map-output BUs that were resident on the
// node's disk and are gone with it (empty on a rejoin before detection:
// the disk survived). StockAM re-queues whole fixed splits with bounded
// retry+backoff; FlexMap returns only unprocessed BUs to its binding
// maps.
type RecoveryHandler interface {
	OnNodeLost(id cluster.NodeID, crashed []*MapAttempt, lostOutput []dfs.BUID)
	// OnPreempted is delivered immediately: an elastic drain preempting a
	// map attempt is a scheduler decision the AM hears about
	// synchronously.
	OnPreempted(a *MapAttempt)
}

// SetRecovery installs the AM's recovery handler. AM constructors call it;
// it is required only when fault injection is active.
func (d *Driver) SetRecovery(h RecoveryHandler) { d.recovery = h }

// OnNodeRejoin registers a hook fired after a down node heartbeats again
// (FlexMap resets the node's speed window here).
func (d *Driver) OnNodeRejoin(fn func(cluster.NodeID)) {
	d.rejoinHooks = append(d.rejoinHooks, fn)
}

// FaultTarget is a run's one list of drivers, kept in submission order.
// It is the fault injector's target: it applies each injected fault to
// the cluster once and fans it out to the drivers. It also delivers the
// watcher's loss and rejoin declarations and the elastic controller's
// drains to them, in the same order. Run has one driver, a workload one
// per submitted job.
type FaultTarget struct {
	clus    *cluster.Cluster
	drivers []*Driver
}

// NewFaultTarget returns a fault target over c with no drivers yet.
func NewFaultTarget(c *cluster.Cluster) *FaultTarget { return &FaultTarget{clus: c} }

// Add appends a driver; call it in job submission order.
func (t *FaultTarget) Add(d *Driver) { t.drivers = append(t.drivers, d) }

// AttachWatcher wires heartbeat-timeout failure detection into every
// driver, present and later added: loss declarations deliver crashed
// work and drop resident output, rejoins deliver crashed work and
// restore capacity.
func (t *FaultTarget) AttachWatcher(w *yarn.NodeWatcher) {
	w.OnLost(func(id cluster.NodeID) {
		for _, d := range t.drivers {
			d.nodeLost(id)
		}
	})
	w.OnRejoin(func(id cluster.NodeID) {
		for _, d := range t.drivers {
			d.nodeRejoined(id)
		}
	})
}

// DrainNode evicts every driver's work still resident on a released
// node and returns the map attempts preempted in total.
func (t *FaultTarget) DrainNode(id cluster.NodeID) int {
	preempted := 0
	for _, d := range t.drivers {
		preempted += d.drainNode(id)
	}
	return preempted
}

// CrashNode takes the node down silently: everything running on it dies
// *without any notification*, and each AM learns at detection or rejoin.
// The node flips down once, before any driver kills its work, so it is a
// no-op on an already-down node.
func (t *FaultTarget) CrashNode(id cluster.NodeID) {
	n := t.clus.Node(id)
	if n.Down() {
		return
	}
	n.SetDown(true)
	for _, d := range t.drivers {
		d.crashResident(id)
	}
}

// RestoreNode powers the node back up and resumes heartbeating. The
// watcher notices at its next tick — re-registration, like detection,
// rides the heartbeat.
func (t *FaultTarget) RestoreNode(id cluster.NodeID) {
	t.clus.Node(id).SetDown(false)
}

// crashResident kills this driver's work on a node that just went down.
func (d *Driver) crashResident(id cluster.NodeID) {
	if d.finished {
		return
	}
	for _, a := range slices.Clone(d.runningOn(id)) {
		if a.kill(true) {
			d.Result.AttemptsCrashed++
			d.crashedPending[id] = append(d.crashedPending[id], a)
		}
	}
	for _, rr := range append([]*reduceRun(nil), d.runningReduce[id]...) {
		rr.crash()
	}
}

// preempt kills a running map attempt as a preemption: the AM hears
// synchronously and the container is released. It reports false if the
// attempt had already finished or been killed.
func (d *Driver) preempt(a *MapAttempt) bool {
	if !a.kill(true) {
		return false
	}
	d.Result.AttemptsCrashed++
	d.Result.Preemptions++
	if d.recovery != nil {
		d.recovery.OnPreempted(a)
	}
	a.Container.Release()
	return true
}

// drainNode evicts this driver's work still resident on a node whose
// decommission notice has expired — FaultTarget.DrainNode calls it
// right after the node leaves the cluster. Unlike a crash the AM hears
// synchronously: running maps are preempted (FlexMap rescues each
// attempt's processed BU prefix, stock re-queues the split with no
// retry charge), running reduce attempts restart elsewhere, and queued
// reduce partitions migrate. Committed map output survives — a
// decommission copies intermediate data out before the machine goes
// away, so downstream reducers re-fetch nothing. It returns the number
// of map attempts preempted (0 for a fully graceful drain).
func (d *Driver) drainNode(id cluster.NodeID) int {
	if d.finished {
		return 0
	}
	preempted := 0
	for _, a := range slices.Clone(d.runningOn(id)) {
		if d.preempt(a) {
			preempted++
		}
	}
	for _, rr := range append([]*reduceRun(nil), d.runningReduce[id]...) {
		rr.crash()
	}
	// Deliver any still-pending crashed work now: the node is leaving
	// liveness tracking, so the detection/rejoin that would otherwise
	// deliver it will never come. This also requeues the reduce
	// partitions crashed just above.
	d.deliverCrashed(id, nil)
	if d.mapsFinished && !d.finished {
		d.requeueReduces(d.unqueueReduces(id))
	}
	d.RM.Poke()
	return preempted
}

// nodeLost handles a heartbeat-timeout loss declaration: resident map
// output is gone with the node's disk, crashed work is delivered to the
// AM, and queued reduce work migrates to live nodes.
func (d *Driver) nodeLost(id cluster.NodeID) {
	if d.finished {
		return
	}
	d.Result.NodesLost++
	var lostOutput []dfs.BUID
	if !d.mapsFinished {
		// Reducers fetch as the map phase runs; once it closes the shuffle
		// is modeled as complete and map output no longer lives on one disk.
		lostOutput = d.dropResidentOutput(id)
	}
	d.deliverCrashed(id, lostOutput)
	if d.mapsFinished && !d.finished {
		d.requeueReduces(d.unqueueReduces(id))
	}
	d.RM.Poke()
}

// nodeRejoined handles a down node heartbeating again, whether or not it
// was declared lost. Its crashed work (if not already delivered at
// detection) is delivered now; its disk survived, so no output is lost.
func (d *Driver) nodeRejoined(id cluster.NodeID) {
	if d.finished {
		return
	}
	d.Result.NodesRejoined++
	d.deliverCrashed(id, nil)
	for _, fn := range d.rejoinHooks {
		fn(id)
	}
	if d.mapsFinished && !d.finished {
		d.pumpReduces(d.Cluster.Node(id))
	}
}

// deliverCrashed hands a node's pending crashed work to the recovery
// handler exactly once, at min(detection, rejoin).
func (d *Driver) deliverCrashed(id cluster.NodeID, lostOutput []dfs.BUID) {
	crashed := d.crashedPending[id]
	delete(d.crashedPending, id)
	if d.recovery != nil && (len(crashed) > 0 || len(lostOutput) > 0) {
		d.recovery.OnNodeLost(id, crashed, lostOutput)
	}
	if parts := d.crashedReduces[id]; len(parts) > 0 {
		delete(d.crashedReduces, id)
		d.requeueReduces(parts)
	}
}

// dropResidentOutput un-commits every completed-task output BU resident
// on the node and returns them sorted. Shuffle bookkeeping is reversed
// with the exact intermediate bytes the commits added.
func (d *Driver) dropResidentOutput(id cluster.NodeID) []dfs.BUID {
	var bus []dfs.BUID
	var inter int64
	kept := d.resident[:0]
	for _, c := range d.resident {
		if c.node != id {
			kept = append(kept, c)
			continue
		}
		bus = append(bus, c.bus...)
		inter += c.inter
	}
	clear(d.resident[len(kept):])
	d.resident = kept
	if len(bus) == 0 {
		return nil
	}
	for _, bu := range bus {
		d.buCommits[bu-d.firstBU]--
	}
	d.nodes.Get(id).inter -= inter
	d.totalInter -= inter
	d.Result.OutputBUsLost += len(bus)
	sort.Slice(bus, func(i, j int) bool { return bus[i] < bus[j] })
	return bus
}

// FailJob aborts the run (retry budget exhausted). The job counts as
// finished so tickers stop and the runner surfaces the failure.
func (d *Driver) FailJob(reason string) {
	if d.finished {
		return
	}
	d.finished = true
	d.Result.Failed = true
	d.Result.FailReason = reason
	d.Result.Finished = d.Eng.Now()
	for _, fn := range d.onFinished {
		fn()
	}
}

// BUCommits returns the per-BU commit counts of every BU committed at
// least once — the job's final accounting. After a successful run every
// input BU must appear exactly once, crashes or not (the exactly-once
// property test's invariant).
func (d *Driver) BUCommits() map[dfs.BUID]int {
	out := make(map[dfs.BUID]int, len(d.buCommits))
	for i, n := range d.buCommits {
		if d.buSeen[i] {
			out[d.firstBU+dfs.BUID(i)] = n
		}
	}
	return out
}

// SyntheticPrefixRecord builds the attempt record AMs log when rescuing
// the processed prefix of a crashed attempt as a durable per-BU commit
// (mirrors SkewTune's preserved-prefix records so successful records
// still cover every BU exactly once).
func SyntheticPrefixRecord(d *Driver, a *MapAttempt, done []dfs.BUID) mr.AttemptRecord {
	var bytes int64
	for _, id := range done {
		bytes += d.Store.Size(id)
	}
	return mr.AttemptRecord{
		Task:        a.Task + ".rescued",
		Type:        mr.MapTask,
		Node:        a.Node.ID,
		Start:       a.Start,
		End:         d.Eng.Now(),
		Overhead:    Overhead,
		Bytes:       bytes,
		BUs:         len(done),
		Wave:        a.Wave,
		Speculative: a.Speculative,
	}
}
