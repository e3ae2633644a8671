package engine

import (
	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
)

// AttemptBook is the map-attempt lifecycle every ApplicationMaster
// shares: which attempts of each task are live, which tasks completed,
// per-node wave numbering, the in-flight speculative count and the
// speculation-candidate set. The AMs differ only in what they launch on a
// free slot; everything after LaunchMap goes through the book.
//
// The candidate set holds the sole running non-speculative attempt of
// each incomplete task. It is maintained incrementally at each lifecycle
// transition — rebuilding it by scanning attempt state per probe was
// quadratic in job size per heartbeat under concurrent-workload load.
// Mutations are O(1): a second live attempt disqualifies the task, so
// membership is a task-keyed index over a swap-remove slice. The slice
// order is mutation order, not launch order; policies must treat it as a
// set (LATE does: its threshold is an order statistic and its victim the
// unique longest-remaining straggler with a lexicographic tie-break).
//
// epoch versions the candidate set for the policy's Pick memoization. It
// bumps on every launch, win, drop, task kill and reopen, including
// liveness-only changes that leave the set itself untouched.
type AttemptBook struct {
	// OnCommit, when non-nil, observes each winning attempt right after
	// its output commits and before its losing copies are killed
	// (FlexMap feeds its speed monitor here).
	OnCommit func(*MapAttempt)

	d      *Driver
	onDone func(*MapAttempt)

	// attempts tracks live attempts per task; completed tasks are removed.
	attempts   map[string][]*MapAttempt
	completed  map[string]bool
	waveByNode []int // per-node launch count, indexed by dense NodeID
	activeSpec int
	epoch      uint64

	cands   []*MapAttempt
	candPos map[string]int // Task → index in cands
}

// NewAttemptBook returns an empty book over the driver. onDone receives
// every attempt that finishes; it should settle the race with Win first.
func NewAttemptBook(d *Driver, onDone func(*MapAttempt)) *AttemptBook {
	return &AttemptBook{
		d:          d,
		onDone:     onDone,
		attempts:   make(map[string][]*MapAttempt),
		completed:  make(map[string]bool),
		waveByNode: make([]int, d.Cluster.Size()),
		candPos:    make(map[string]int),
	}
}

// Launch starts one attempt on l.Node. The book acquires the container
// and fills in the wave and completion callback; the caller sets Task,
// Node, BUs, LocalBUs, Speculative and ExtraFetchBytes.
func (b *AttemptBook) Launch(l MapLaunch) *MapAttempt {
	// A "wave" is one round of concurrent tasks on the node: the first
	// Slots launches are wave 0, the next Slots are wave 1, and so on.
	l.Wave = b.waveByNode[l.Node.ID] / l.Node.Slots
	b.waveByNode[l.Node.ID]++
	if l.Speculative {
		b.activeSpec++
	}
	l.Container = b.d.RM.Acquire(l.Node)
	l.OnDone = b.onDone
	a := b.d.LaunchMap(l)
	b.attempts[l.Task] = append(b.attempts[l.Task], a)
	if len(b.attempts[l.Task]) == 1 && !l.Speculative {
		b.addCand(a)
	} else {
		// A second live attempt (the speculative copy) disqualifies the
		// task: there is already a race in flight.
		b.removeCand(l.Task)
	}
	b.epoch++
	return a
}

// Win settles a finished attempt: it releases the attempt's container
// and, unless the task already completed (a lost photo-finish), marks the
// task complete, commits the output and kills every losing copy. It
// reports whether a won.
func (b *AttemptBook) Win(a *MapAttempt) bool {
	if a.Speculative {
		b.activeSpec--
	}
	a.Container.Release()
	if b.completed[a.Task] {
		return false // the winner already committed
	}
	b.completed[a.Task] = true
	b.removeCand(a.Task)
	b.d.CommitOutput(a)
	if b.OnCommit != nil {
		b.OnCommit(a)
	}
	for _, other := range b.attempts[a.Task] {
		if other != a && other.Kill() {
			b.release(other)
		}
	}
	delete(b.attempts, a.Task)
	b.epoch++
	return true
}

// Drop forgets an attempt that died under a fault (crash or preemption;
// the driver already killed it). A surviving sole original — its
// speculative rival just died — is promoted back to candidacy. Drop
// reports whether the task is now orphaned: incomplete with no live copy,
// so the AM must recover its work.
func (b *AttemptBook) Drop(a *MapAttempt) bool {
	if a.Speculative {
		b.activeSpec--
	}
	list := b.attempts[a.Task]
	for i, other := range list {
		if other == a {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(b.attempts, a.Task)
	} else {
		b.attempts[a.Task] = list
	}
	if len(list) == 1 && !list[0].Speculative && !list[0].Killed() && !b.completed[a.Task] {
		b.addCand(list[0])
	} else {
		b.removeCand(a.Task)
	}
	b.epoch++
	return !b.completed[a.Task] && len(list) == 0
}

// killTask force-kills every live attempt of a task (SkewTune's
// repartition).
func (b *AttemptBook) killTask(task string) {
	for _, a := range b.attempts[task] {
		if a.Kill() {
			b.release(a)
		}
	}
	delete(b.attempts, task)
	b.removeCand(task)
	b.epoch++
}

// reopen marks a completed task incomplete again because its committed
// output was lost with a node. It reports false if the task was not
// complete (already pending or running again).
func (b *AttemptBook) reopen(task string) bool {
	if !b.completed[task] {
		return false
	}
	b.completed[task] = false
	b.epoch++
	return true
}

// Speculate asks the policy for a straggler to duplicate on the idle node
// and launches the copy, reading the victim's replicas local to the node
// first. It reports whether a copy launched.
func (b *AttemptBook) Speculate(policy SpeculationPolicy, node *cluster.Node) bool {
	if policy == nil {
		return false
	}
	victim := policy.Pick(b.d, node, b.cands, b.epoch, b.activeSpec)
	if victim == nil {
		return false
	}
	bus, local := b.localFirst(node, victim.BUs)
	b.Launch(MapLaunch{Task: victim.Task, Node: node, BUs: bus, LocalBUs: local, Speculative: true})
	return true
}

// SpeculationIdle reports that Speculate would launch nothing on any
// node at this instant.
func (b *AttemptBook) SpeculationIdle(policy SpeculationPolicy) bool {
	return policy == nil || policy.Idle(b.d, b.cands, b.epoch, b.activeSpec)
}

// localFirst reorders BUs so the node's local replicas come first — the
// fetch accounting charges only the tail past the local count.
func (b *AttemptBook) localFirst(node *cluster.Node, bus []dfs.BUID) ([]dfs.BUID, int) {
	ordered := make([]dfs.BUID, 0, len(bus))
	var remote []dfs.BUID
	for _, id := range bus {
		if b.d.Store.HasReplica(node.ID, id) {
			ordered = append(ordered, id)
		} else {
			remote = append(remote, id)
		}
	}
	return append(ordered, remote...), len(ordered)
}

// release frees a killed attempt's container and its speculative slot.
func (b *AttemptBook) release(a *MapAttempt) {
	if a.Speculative {
		b.activeSpec--
	}
	a.Container.Release()
}

func (b *AttemptBook) addCand(a *MapAttempt) {
	if i, ok := b.candPos[a.Task]; ok {
		b.cands[i] = a
		return
	}
	b.candPos[a.Task] = len(b.cands)
	b.cands = append(b.cands, a)
}

func (b *AttemptBook) removeCand(task string) {
	i, ok := b.candPos[task]
	if !ok {
		return
	}
	last := len(b.cands) - 1
	moved := b.cands[last]
	b.cands[i] = moved
	b.candPos[moved.Task] = i
	b.cands[last] = nil
	b.cands = b.cands[:last]
	delete(b.candPos, task)
}
