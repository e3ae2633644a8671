// Package skewtune implements the SkewTune baseline (Kwon et al., SIGMOD
// 2012) the paper compares against: when a node becomes idle and no
// pending work exists, the straggler with the longest expected remaining
// time is stopped and its unprocessed input is repartitioned across the
// idle capacity.
//
// Crucially — and this is the weakness the paper exploits — SkewTune
// assumes all nodes have equal processing capability: repartitioned
// chunks are sized evenly, so a chunk landing back on a slow node lags
// again, and repartitioning itself costs a data scan-and-move charged
// here as re-fetched bytes.
package skewtune

import (
	"fmt"

	"flexmap/internal/cluster"
	"flexmap/internal/engine"
	"flexmap/internal/mr"
	"flexmap/internal/sim"
)

// minBUs is the smallest remainder worth splitting.
const minBUs = 2

// AM wraps the stock ApplicationMaster with SkewTune's stop-and-
// repartition mitigation. Speculation is disabled: repartitioning is
// SkewTune's replacement for it.
type AM struct {
	// minRemaining is the smallest estimated remaining time worth
	// repartitioning (SkewTune's "is it worth it" test: the straggler's
	// remaining work must dwarf the cost of planning, moving its data
	// and restarting it elsewhere — 4× the task startup overhead plus
	// two seconds of planning).
	minRemaining sim.Duration

	stock  *engine.StockAM
	d      *engine.Driver
	rounds []int // repartition round counter, indexed by TaskID
}

// New builds a SkewTune AM over fixed splits of splitBUs block units. The
// RM must offer to the returned AM, not to the stock AM inside it; New
// binds neither.
func New(d *engine.Driver, splitBUs int) (*AM, error) {
	stock, err := engine.NewStockAM(d, splitBUs, nil)
	if err != nil {
		return nil, err
	}
	return &AM{
		minRemaining: 4*engine.Overhead + 2,
		stock:        stock,
		d:            d,
	}, nil
}

// Stock returns the stock AM SkewTune dispatches through.
func (am *AM) Stock() *engine.StockAM { return am.stock }

// OnSlotFree implements yarn.Scheduler: normal dispatch first, then skew
// mitigation on idle capacity.
func (am *AM) OnSlotFree(node *cluster.Node) bool {
	if am.d.Finished() || am.d.MapsFinished() {
		return false
	}
	if am.stock.TryDispatch(node) {
		return true
	}
	if am.stock.PendingCount() > 0 {
		// Pending work exists but was declined (locality wait); don't
		// repartition while originals are still queued.
		return false
	}
	if !am.repartition(node) {
		return false
	}
	// Newly minted subtasks are pending now; dispatch one here.
	return am.stock.TryDispatch(node)
}

// Bound implements yarn.Scheduler. A declined offer with nothing pending
// may repartition a straggler, so SkewTune is bound to no node once its
// map phase is over and unbound before.
func (am *AM) Bound(dst []cluster.NodeID) ([]cluster.NodeID, bool) {
	return dst[:0], am.d.Finished() || am.d.MapsFinished()
}

// straggler returns the running attempt with the longest expected
// remaining time among those with at least minBUs unprocessed BUs, ties
// to the lowest task ID, and that time. The scan walks the driver's
// running attempts in NodeID order; ordering by (remaining desc, task
// asc) picks the first maximum a walk in task order would. nil means no
// candidate.
func (am *AM) straggler(now sim.Time) (*engine.MapAttempt, sim.Duration) {
	var victim *engine.MapAttempt
	var worst sim.Duration = -1
	for _, a := range am.d.RunningMaps() {
		r := a.EstRemaining(now)
		better := r > worst || r == worst && victim != nil && a.Task < victim.Task
		if better && a.RemainingAtLeast(now, minBUs) {
			worst, victim = r, a
		}
	}
	return victim, worst
}

// repartition picks the worst straggler, stops it, and re-queues its
// unprocessed BUs as evenly-sized subtasks — evenly because SkewTune
// assumes homogeneous workers. It reports whether a repartition happened.
func (am *AM) repartition(node *cluster.Node) bool {
	now := am.d.Eng.Now()
	victim, worst := am.straggler(now)
	if victim == nil || worst < am.minRemaining {
		return false
	}
	done, rem := victim.SplitBUs(now)
	task := victim.Task
	start := victim.Start

	am.stock.KillTaskAttempts(victim.TaskID)

	// The fully-processed prefix is preserved: SkewTune keeps partial map
	// output. Publish its shuffle output and record it as a successful
	// partial attempt so every BU stays covered exactly once.
	if len(done) > 0 {
		var doneBytes int64
		for _, id := range done {
			doneBytes += am.d.Store.Size(id)
		}
		am.d.CommitOutputForBUs(victim.Node.ID, done)
		runtime := sim.Duration(now - start)
		eff := runtime - engine.Overhead
		if eff < 0 {
			eff = 0
		}
		am.d.RecordAttempt(mr.AttemptRecord{
			Task:      task + ".prefix",
			Type:      mr.MapTask,
			Node:      victim.Node.ID,
			Start:     start,
			End:       now,
			Overhead:  engine.Overhead,
			Effective: eff,
			Bytes:     doneBytes,
			BUs:       len(done),
			LocalBUs:  len(done), // prefix was read wherever the task ran
			Wave:      0,
		})
	}

	// Split the remainder evenly across idle slots (incl. the offering
	// slot, whose capacity is still uncommitted).
	idle := am.d.RM.TotalFree()
	parts := idle
	if parts > len(rem) {
		parts = len(rem)
	}
	if parts < 1 {
		parts = 1
	}
	if n := int(victim.TaskID) + 1; n > len(am.rounds) {
		am.rounds = append(am.rounds, make([]int, n-len(am.rounds))...)
	}
	am.rounds[victim.TaskID]++
	round := am.rounds[victim.TaskID]
	var moved int64
	for i := 0; i < parts; i++ {
		lo := i * len(rem) / parts
		hi := (i + 1) * len(rem) / parts
		chunk := rem[lo:hi]
		var bytes int64
		for _, id := range chunk {
			bytes += am.d.Store.Size(id)
		}
		moved += bytes
		delta := 1
		if i == 0 {
			delta = 0 // first subtask replaces the stopped original
		}
		am.stock.AddPending(engine.PendingSplit{
			Task:            fmt.Sprintf("%s.r%d.%d", task, round, i),
			BUs:             chunk,
			Hosts:           nil, // repartitioned data: no locality claim
			ExtraFetchBytes: bytes,
		}, delta)
	}
	am.d.Result.RepartitionBytes += moved
	return true
}
