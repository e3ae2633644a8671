package core

import (
	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/engine"
)

// OnNodeLost implements engine.RecoveryHandler — the payoff of Late Task
// Binding under failures. A crashed elastic task does not re-run whole:
// its fully-processed BU prefix is rescued as a durable per-BU commit
// (FlexMap's commit protocol checkpoints at BU boundaries) and only the
// unprocessed remainder returns to the NodeToBlock/BlockToNode binding
// maps, where it is re-bound into fresh tasks sized for whichever nodes
// pick it up. Committed output lost with the node's disk likewise just
// re-enters the pools.
func (am *AM) OnNodeLost(id cluster.NodeID, crashed []*engine.MapAttempt, lostOutput []dfs.BUID) {
	for _, a := range crashed {
		if !am.book.Drop(a) {
			continue // committed, or a speculative copy still racing
		}
		am.rescueAndRestore(a)
	}
	am.restore(lostOutput)
	am.checkMapsDone()
	// The driver pokes the RM after delivery; restored BUs are bound then.
}

// OnPreempted implements engine.RecoveryHandler. Same BU-granular
// recovery as a crash, delivered synchronously and with the node alive.
func (am *AM) OnPreempted(a *engine.MapAttempt) {
	if !am.book.Drop(a) {
		return
	}
	am.rescueAndRestore(a)
	am.checkMapsDone()
	am.d.RM.Poke()
}

// rescueAndRestore retires a dead attempt's task: the processed prefix
// becomes a durable commit, the remainder goes back to the binding maps.
// Only the partially-processed BU in flight is charged as re-processed
// work — the prefix survives, and the remainder was never processed.
func (am *AM) rescueAndRestore(a *engine.MapAttempt) {
	done, remaining := a.CrashSplit()
	var doneBytes int64
	for _, id := range done {
		doneBytes += am.d.Store.Size(id)
	}
	if len(done) > 0 {
		am.d.CommitOutputForBUs(a.Node.ID, done)
		am.d.RecordAttempt(engine.SyntheticPrefixRecord(am.d, a, done))
	}
	am.tasksLeft--
	if waste := a.CrashProcessedBytes() - doneBytes; waste > 0 {
		am.d.Result.ReprocessedBytes += waste
	}
	if len(remaining) > 0 {
		am.d.Result.TaskRetries++
		am.tracker.Restore(remaining)
	}
}

// restore returns fully-processed BUs whose output died with a node to
// the binding maps, charging their bytes as re-processed work.
func (am *AM) restore(bus []dfs.BUID) {
	if len(bus) == 0 {
		return
	}
	am.tracker.Restore(bus)
	var bytes int64
	for _, id := range bus {
		bytes += am.d.Store.Size(id)
	}
	am.d.Result.TaskRetries++
	am.d.Result.ReprocessedBytes += bytes
}

// checkMapsDone closes the map phase if recovery just accounted for the
// last outstanding work (e.g. a crashed attempt whose prefix covered its
// whole split).
func (am *AM) checkMapsDone() {
	if !am.d.MapsFinished() && !am.d.Finished() &&
		am.tracker.Remaining() == 0 && am.tasksLeft == 0 {
		am.d.MapsDone()
	}
}
