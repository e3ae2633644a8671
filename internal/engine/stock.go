package engine

import (
	"fmt"
	"sort"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/sim"
)

// SpeculationPolicy decides whether to launch a speculative copy of a
// running map attempt on an idle node. StockAM consults it only when the
// pending queue is empty (Hadoop's last-wave rule falls out naturally).
type SpeculationPolicy interface {
	// Pick returns the attempt to duplicate on node, or nil. candidates
	// are running, non-speculative attempts whose task has no live copy
	// yet; candEpoch identifies the candidate-set version — it changes
	// whenever the slice's contents (or any candidate's liveness) may
	// have, so policies can cache per (now, candEpoch). activeSpec is the
	// number of speculative attempts in flight.
	Pick(d *Driver, node *cluster.Node, candidates []*MapAttempt, candEpoch uint64, activeSpec int) *MapAttempt
	// Idle reports that Pick, with the same arguments, would return nil
	// for every node at this instant. It follows the yarn.Scheduler.Idle
	// contract: false is always safe.
	Idle(d *Driver, candidates []*MapAttempt, candEpoch uint64, activeSpec int) bool
}

// PendingSplit is a map task waiting for dispatch. Stock splits come from
// dfs.Splits; SkewTune mints additional ones when repartitioning.
type PendingSplit struct {
	Task  string
	BUs   []dfs.BUID
	Hosts []cluster.NodeID // nodes holding every BU (empty = no locality)
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
	Name string

	// Speculation, when non-nil, enables speculative execution.
	Speculation SpeculationPolicy

	d       *Driver
	book    *AttemptBook
	pending pendingQueue
	// tasksRemaining counts tasks not yet completed (grows when SkewTune
	// splits a task into subtasks).
	tasksRemaining int
	// remoteAllowedAt is indexed by the dense NodeID; < 0 means no
	// locality-wait timer is armed for the node.
	remoteAllowedAt []sim.Time

	// maxTaskAttempts bounds executions of one task (Hadoop's
	// mapreduce.map.maxattempts, 4): the job fails when a task crashes
	// that many times.
	maxTaskAttempts int

	// Crash-recovery bookkeeping: the immutable split of every task (to
	// re-queue it whole — stock has no sub-split granularity), the task
	// owning each BU (to map lost output back to tasks), and per-task
	// crash counts. taskOfBU is indexed by the BU's offset from the input
	// file's first BUID (a file's BUIDs are contiguous).
	splitByTask map[string]PendingSplit
	firstBU     dfs.BUID
	taskOfBU    []string
	retries     map[string]int
}

// NewStockAM builds the stock AM over fixed splits of splitBUs block
// units and registers it with the driver's RM.
func NewStockAM(d *Driver, splitBUs int, speculation SpeculationPolicy) (*StockAM, error) {
	splits, err := d.Store.Splits(d.Spec.InputFile, splitBUs)
	if err != nil {
		return nil, err
	}
	input, _ := d.Store.File(d.Spec.InputFile) // Splits found it
	am := &StockAM{
		Name:            fmt.Sprintf("hadoop-%dm", int64(splitBUs)*dfs.BUSize/MB),
		Speculation:     speculation,
		maxTaskAttempts: 4,
		d:               d,
		remoteAllowedAt: make([]sim.Time, d.Cluster.Size()),
		splitByTask:     make(map[string]PendingSplit),
		firstBU:         input.BUs[0],
		taskOfBU:        make([]string, len(input.BUs)),
		retries:         make(map[string]int),
	}
	for i := range am.remoteAllowedAt {
		am.remoteAllowedAt[i] = -1
	}
	am.book = NewAttemptBook(d, am.onMapDone)
	for _, sp := range splits {
		p := PendingSplit{
			Task:  fmt.Sprintf("map-%04d", sp.Index),
			BUs:   sp.BUs,
			Hosts: sp.Hosts,
		}
		am.pending.add(p)
		am.indexSplit(p)
	}
	am.tasksRemaining = am.pending.Len()
	d.Result.Engine = am.Name
	d.Register(am)
	d.SetRecovery(am)
	return am, nil
}

// indexSplit records a task's split for crash recovery.
func (am *StockAM) indexSplit(p PendingSplit) {
	am.splitByTask[p.Task] = p
	for _, id := range p.BUs {
		am.taskOfBU[id-am.firstBU] = p.Task
	}
}

// Driver returns the underlying driver.
func (am *StockAM) Driver() *Driver { return am.d }

// PendingCount returns the number of undispatched map tasks.
func (am *StockAM) PendingCount() int { return am.pending.Len() }

// TasksRemaining returns the number of incomplete map tasks.
func (am *StockAM) TasksRemaining() int { return am.tasksRemaining }

// AddPending enqueues an extra map task (SkewTune subtasks) and adjusts
// the outstanding-task count by delta (subtasks add new tasks; the
// repartitioned original never completes).
func (am *StockAM) AddPending(p PendingSplit, delta int) {
	am.pending.add(p)
	am.tasksRemaining += delta
	am.indexSplit(p)
	am.d.RM.Poke()
}

// OnSlotFree implements yarn.Scheduler.
func (am *StockAM) OnSlotFree(node *cluster.Node) bool {
	if am.d.Finished() || am.d.MapsFinished() {
		return false // reduce phase is driven by the Driver
	}
	return am.TryDispatch(node)
}

// Idle implements yarn.Scheduler. With nothing pending, every offer is
// a speculation probe: takeLocal only pops stale seqs left by lazy
// deletion, and no locality wait is armed.
func (am *StockAM) Idle() bool {
	return am.d.Finished() || am.d.MapsFinished() ||
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
		if allowed := am.remoteAllowedAt[node.ID]; allowed < 0 {
			// First miss: start the locality-wait timer and re-offer later.
			am.remoteAllowedAt[node.ID] = now + sim.Time(localityWait)
			am.d.Eng.After(localityWait, "locality-wait", func() { am.d.RM.Poke() })
			return false
		} else if now < allowed {
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
	am.remoteAllowedAt[node.ID] = -1
	bus, local := am.book.localFirst(node, p.BUs)
	am.book.Launch(MapLaunch{
		Task:            p.Task,
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
func (am *StockAM) KillTaskAttempts(task string) { am.book.killTask(task) }

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
		am.retries[a.Task]++
		if am.retries[a.Task] >= am.maxTaskAttempts {
			am.d.FailJob(fmt.Sprintf("task %s crashed %d times (max attempts %d)",
				a.Task, am.retries[a.Task], am.maxTaskAttempts))
			return
		}
		am.requeueWithBackoff(a.Task, a.CrashProcessedBytes())
	}
	for _, task := range am.ownersOf(lostOutput) {
		if !am.book.reopen(task) {
			continue // already pending or running again; it will recommit
		}
		am.tasksRemaining++
		sp := am.splitByTask[task]
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
	sp := am.splitByTask[a.Task]
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
func (am *StockAM) requeueWithBackoff(task string, waste int64) {
	sp, ok := am.splitByTask[task]
	if !ok {
		panic(fmt.Sprintf("engine: crashed task %s has no indexed split", task))
	}
	am.d.Result.TaskRetries++
	am.d.Result.ReprocessedBytes += waste
	backoff := retryBackoff
	for i := 1; i < am.retries[task]; i++ {
		backoff *= 2
	}
	if backoff > 60 {
		backoff = 60
	}
	am.d.Eng.After(backoff, "map-retry", func() {
		if am.d.Finished() || am.book.completed[task] {
			return
		}
		am.pending.add(sp)
		am.d.RM.Poke()
	})
}

// ownersOf maps lost output BUs to their owning tasks, deduplicated and
// sorted for deterministic re-queue order.
func (am *StockAM) ownersOf(bus []dfs.BUID) []string {
	if len(bus) == 0 {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, id := range bus {
		task := am.taskOfBU[id-am.firstBU]
		if task == "" {
			panic(fmt.Sprintf("engine: lost output BU %d has no owning task", id))
		}
		if !seen[task] {
			seen[task] = true
			out = append(out, task)
		}
	}
	sort.Strings(out)
	return out
}

// splitBytes sums a split's input bytes.
func (am *StockAM) splitBytes(p PendingSplit) int64 {
	var b int64
	for _, id := range p.BUs {
		b += am.d.Store.Block(id).Size
	}
	return b
}
