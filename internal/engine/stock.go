package engine

import (
	"fmt"
	"slices"
	"sort"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/mr"
	"flexmap/internal/sim"
)

// SpeculationPolicy decides whether to launch a speculative copy of a
// running map attempt on an idle node. StockAM consults it only when the
// pending queue is empty (Hadoop's last-wave rule falls out naturally).
type SpeculationPolicy interface {
	// Pick returns the attempt to duplicate on node, or nil. candidates
	// are running, non-speculative attempts whose task has no live copy
	// yet, in launch order: the non-nil entries have non-decreasing
	// Start. Nil entries are removed candidates and must be skipped; a
	// non-empty slice ends in a non-nil entry. candEpoch identifies the
	// candidate-set version — it changes whenever the slice's contents
	// (or any candidate's liveness) may have, so policies can cache per
	// (now, candEpoch). activeSpec is the number of speculative attempts
	// in flight. The slice belongs to the book: read it during the call
	// only.
	Pick(d *Driver, node *cluster.Node, candidates []*MapAttempt, candEpoch uint64, activeSpec int) *MapAttempt
	// Idle reports that Pick, with the same arguments, would return nil
	// for every node at this instant. It follows the contract of an empty
	// yarn.Scheduler.Bound: false is always safe.
	Idle(d *Driver, candidates []*MapAttempt, candEpoch uint64, activeSpec int) bool
}

// PendingSplit is a map task waiting for dispatch. Stock splits come from
// dfs.Splits; SkewTune mints additional ones when repartitioning.
type PendingSplit struct {
	Task   string
	TaskID TaskID // assigned by the stock AM when it indexes the split
	BUs    []dfs.BUID
	Hosts  []cluster.NodeID // nodes holding every BU (empty = no locality)
	// ExtraFetchBytes charges additional data movement at launch
	// (SkewTune's repartition I/O).
	ExtraFetchBytes int64
}

// localityWait is how long a node's free slot waits for node-local work
// before accepting a remote split.
const localityWait sim.Duration = 1

// retryBackoff is the base re-queue delay after a crash; it doubles per
// retry of the same task (capped at 60 s).
const retryBackoff sim.Duration = 5

// StockAM is the classic Hadoop MRAppMaster: fixed-size splits statically
// bound at submission, locality-preferring dispatch with a short delay
// before falling back to remote execution, and optional LATE-style
// speculation at the last wave.
type StockAM struct {
	// Speculation, when non-nil, enables speculative execution.
	Speculation SpeculationPolicy

	d       *Driver
	book    *AttemptBook
	pending pendingQueue
	// tasksRemaining counts tasks not yet completed (grows when SkewTune
	// splits a task into subtasks).
	tasksRemaining int
	// waits holds, for each node whose locality wait was ever armed, when
	// the wait expires; negative once a launch on the node reset it. Every
	// node offered while splits are pending arms one, so on a large idle
	// fleet this table goes dense.
	waits cluster.NodeTable[sim.Time]
	// poke is the RM's Poke, bound once: every armed wait schedules it.
	poke func()

	// maxTaskAttempts bounds executions of one task (Hadoop's
	// mapreduce.map.maxattempts, 4): the job fails when a task crashes
	// that many times.
	maxTaskAttempts int

	// Crash-recovery bookkeeping: every task's immutable split (to
	// re-queue it whole — stock has no sub-split granularity) and crash
	// count, indexed by TaskID, and the task owning each BU (to map lost
	// output back to tasks). taskOfBU is indexed by the BU's offset from
	// the input file's first BUID (a file's BUIDs are contiguous).
	tasks    []stockTask
	firstBU  dfs.BUID
	taskOfBU []TaskID
}

// stockTask is the stock AM's crash-recovery record of one task.
type stockTask struct {
	split   PendingSplit
	retries int
}

// NewStockAM builds the stock AM over fixed splits of splitBUs block
// units. It does not bind itself to the RM; the caller does.
func NewStockAM(d *Driver, splitBUs int, speculation SpeculationPolicy) (*StockAM, error) {
	splits, err := d.Store.Splits(d.Spec.InputFile, splitBUs)
	if err != nil {
		return nil, err
	}
	input, _ := d.Store.File(d.Spec.InputFile) // Splits found it
	am := &StockAM{
		Speculation:     speculation,
		maxTaskAttempts: 4,
		d:               d,
		tasks:           make([]stockTask, 0, len(splits)),
		firstBU:         input.BUs[0],
		taskOfBU:        make([]TaskID, len(input.BUs)),
	}
	am.waits.SetFleet(d.Cluster.Size())
	am.poke = d.RM.Poke
	am.book = NewAttemptBook(d, am.onMapDone)
	// Every split launches at least once and records an attempt, and
	// every partition records a reduce attempt.
	d.expectedMaps = len(splits)
	d.Result.Attempts = make([]mr.AttemptRecord, 0, len(splits)+d.Spec.NumReducers)
	am.pending.reserve(splits, d.Cluster.Size())
	am.book.tasks = make([]taskState, 0, len(splits))
	names := itoa4s("map-", len(splits)) // MapTaskName of every split index
	for _, sp := range splits {
		am.pending.add(am.indexSplit(PendingSplit{
			Task:  names[sp.Index],
			BUs:   sp.BUs,
			Hosts: sp.Hosts,
		}))
	}
	am.tasksRemaining = am.pending.Len()
	d.SetRecovery(am)
	return am, nil
}

// indexSplit assigns the split the next TaskID, records it for crash
// recovery and returns it with the ID set.
func (am *StockAM) indexSplit(p PendingSplit) PendingSplit {
	p.TaskID = TaskID(len(am.tasks))
	am.tasks = append(am.tasks, stockTask{split: p})
	for _, id := range p.BUs {
		am.taskOfBU[id-am.firstBU] = p.TaskID
	}
	return p
}

// PendingCount returns the number of undispatched map tasks.
func (am *StockAM) PendingCount() int { return am.pending.Len() }

// AddPending enqueues an extra map task (SkewTune subtasks) under the
// next TaskID and adjusts the outstanding-task count by delta (subtasks
// add new tasks; the repartitioned original never completes).
func (am *StockAM) AddPending(p PendingSplit, delta int) {
	am.pending.add(am.indexSplit(p))
	am.tasksRemaining += delta
	am.d.RM.Poke()
}

// OnSlotFree implements yarn.Scheduler.
func (am *StockAM) OnSlotFree(node *cluster.Node) bool {
	if am.d.Finished() || am.d.MapsFinished() {
		return false // reduce phase is driven by the Driver
	}
	return am.TryDispatch(node)
}

// Bound implements yarn.Scheduler: no node while every offer would be
// declined with no effect, otherwise unbound. With nothing pending,
// every offer is a speculation probe: takeLocal only pops stale seqs
// left by lazy deletion, and no locality wait is armed.
func (am *StockAM) Bound(dst []cluster.NodeID) ([]cluster.NodeID, bool) {
	return dst[:0], am.d.Finished() || am.d.MapsFinished() ||
		(am.pending.Len() == 0 && am.book.SpeculationIdle(am.Speculation))
}

// TryDispatch attempts to place map work on the node: a node-local
// pending split first, a remote split after the locality wait, then a
// speculative copy if the policy approves.
func (am *StockAM) TryDispatch(node *cluster.Node) bool {
	if p, ok := am.pending.takeLocal(node.ID); ok {
		am.launchPending(node, p)
		return true
	}
	if am.pending.Len() > 0 {
		now := am.d.Eng.Now()
		if wait := am.waits.Get(node.ID); wait == nil || *wait < 0 {
			// First miss: start the locality-wait timer and re-offer later.
			*am.waits.Put(node.ID) = now + sim.Time(localityWait)
			am.d.Eng.After(localityWait, "locality-wait", am.poke)
			return false
		} else if now < *wait || am.d.RM.FreeSlots(node.ID) == 0 {
			// A full node: SkewTune's repartition pokes the RM from
			// inside its offer, and that nested sweep may have handed
			// this node's last slot to another job.
			return false
		}
		p, _ := am.pending.takeFIFO() // FIFO remote pick; Len()>0 guarantees ok
		am.launchPending(node, p)
		return true
	}
	return am.book.Speculate(am.Speculation, node)
}

func (am *StockAM) launchPending(node *cluster.Node, p PendingSplit) {
	// Reset the node's locality wait: delay scheduling re-waits per task
	// assignment, whether this launch was local or (timed-out) remote.
	if wait := am.waits.Get(node.ID); wait != nil {
		*wait = -1
	}
	bus, local := am.book.localFirst(node, p.BUs)
	am.book.Launch(MapLaunch{
		Task:            p.Task,
		TaskID:          p.TaskID,
		Node:            node,
		BUs:             bus,
		LocalBUs:        local,
		ExtraFetchBytes: p.ExtraFetchBytes,
	})
}

func (am *StockAM) onMapDone(a *MapAttempt) {
	if !am.book.Win(a) {
		return
	}
	am.tasksRemaining--
	if am.tasksRemaining == 0 {
		am.d.MapsDone()
	}
}

// KillTaskAttempts force-kills all live attempts of a task (SkewTune
// repartition).
func (am *StockAM) KillTaskAttempts(id TaskID) { am.book.killTask(id) }

// OnNodeLost implements RecoveryHandler: stock Hadoop has no sub-split
// granularity, so every crashed attempt re-queues its *whole* fixed
// split, with bounded retries and exponential backoff. Committed output
// lost with the node forces the owning tasks to re-execute so unfetched
// reducers can still shuffle their partitions.
func (am *StockAM) OnNodeLost(id cluster.NodeID, crashed []*MapAttempt, lostOutput []dfs.BUID) {
	for _, a := range crashed {
		if !am.book.Drop(a) {
			continue // committed, or a live copy is still racing
		}
		t := &am.tasks[a.TaskID]
		t.retries++
		if t.retries >= am.maxTaskAttempts {
			am.d.FailJob(fmt.Sprintf("task %s crashed %d times (max attempts %d)",
				a.Task, t.retries, am.maxTaskAttempts))
			return
		}
		am.requeueWithBackoff(a.TaskID, a.CrashProcessedBytes())
	}
	for _, id := range am.ownersOf(lostOutput) {
		if !am.book.reopen(id) {
			continue // already pending or running again; it will recommit
		}
		am.tasksRemaining++
		sp := am.tasks[id].split
		am.d.Result.TaskRetries++
		am.d.Result.ReprocessedBytes += am.splitBytes(sp)
		am.pending.add(sp)
	}
	// The driver pokes the RM after delivery.
}

// OnPreempted implements RecoveryHandler: preemption is scheduler-
// initiated, so the split re-queues immediately with no retry charged.
func (am *StockAM) OnPreempted(a *MapAttempt) {
	if !am.book.Drop(a) {
		return
	}
	sp := am.tasks[a.TaskID].split
	am.d.Result.TaskRetries++
	am.d.Result.ReprocessedBytes += a.CrashProcessedBytes()
	am.pending.add(sp)
	am.d.RM.Poke()
}

// requeueWithBackoff re-queues a crashed task's split after an
// exponentially growing delay (base retryBackoff, doubling per crash of
// the task, capped at 60 s) — Hadoop's re-attempt pacing. waste is the
// crashed attempt's processed-at-crash bytes, charged as re-processed
// work (the whole-split re-run redoes exactly that much).
func (am *StockAM) requeueWithBackoff(id TaskID, waste int64) {
	t := am.tasks[id]
	am.d.Result.TaskRetries++
	am.d.Result.ReprocessedBytes += waste
	backoff := retryBackoff
	for i := 1; i < t.retries; i++ {
		backoff *= 2
	}
	if backoff > 60 {
		backoff = 60
	}
	am.d.Eng.After(backoff, "map-retry", func() {
		if am.d.Finished() || am.book.completed(id) {
			return
		}
		am.pending.add(t.split)
		am.d.RM.Poke()
	})
}

// ownersOf maps lost output BUs to their owning tasks, deduplicated and
// sorted by task name for deterministic re-queue order.
func (am *StockAM) ownersOf(bus []dfs.BUID) []TaskID {
	var out []TaskID
	for _, bu := range bus {
		id := am.taskOfBU[bu-am.firstBU]
		if n := len(out); n == 0 || out[n-1] != id {
			out = append(out, id)
		}
	}
	// Names are unique per task, so equal IDs sort adjacent.
	sort.Slice(out, func(i, j int) bool { return am.tasks[out[i]].split.Task < am.tasks[out[j]].split.Task })
	return slices.Compact(out)
}

// splitBytes sums a split's input bytes.
func (am *StockAM) splitBytes(p PendingSplit) int64 {
	var b int64
	for _, id := range p.BUs {
		b += am.d.Store.Size(id)
	}
	return b
}
