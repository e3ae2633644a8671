package engine

import (
	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
)

// TaskID is a map task's dense index within its job: the stock AM's
// split index (SkewTune's subtasks take the next free IDs), FlexMap's
// dispatch counter. The book and the AMs key per-task state by it; the
// task name (map-0007) is kept for output and for every order that
// sorts tasks, since name order and ID order part at map-10000 and for
// SkewTune's .rN.i subtasks.
type TaskID int

// MapTaskName returns the name of map task id: "map-" and the ID
// formatted as %04d.
func MapTaskName(id TaskID) string { return itoa4("map-", int(id)) }

// AttemptBook is the map-attempt lifecycle every ApplicationMaster
// shares: which attempts of each task are live, which tasks completed,
// per-node wave numbering, the in-flight speculative count and the
// speculation-candidate set. The AMs differ only in what they launch on a
// free slot; everything after LaunchMap goes through the book.
//
// Per-task state is a slice indexed by TaskID, grown as IDs appear, so
// no lifecycle transition hashes a task name.
//
// The candidate set holds the sole running non-speculative attempt of
// each incomplete task. It is maintained incrementally at each lifecycle
// transition — rebuilding it by scanning attempt state per probe was
// quadratic in job size per heartbeat under concurrent-workload load.
// The slice is in launch order: its live entries have non-decreasing
// Start, so a policy can stop at the first attempt too young to rank
// (LATE does). Each task records its position, so removal is O(1): it
// leaves a nil tombstone, trailing tombstones are trimmed at once (a
// non-empty slice ends in a live entry), and the slice is compacted once
// tombstones pass 1/32 of it. Launch appends; only a fault (Drop
// promoting a surviving original) inserts an older attempt, at its Start
// position, in O(n).
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

	tasks      []taskState // indexed by TaskID
	activeSpec int
	epoch      uint64

	cands []*MapAttempt // launch order; nil entries are tombstones
	holes int           // nil entries in cands
}

// taskState is one task's entry in the book.
type taskState struct {
	live      []*MapAttempt // live attempts; nil once the task completes
	completed bool
	cand      int // 1 + index in cands; 0 when the task is no candidate
}

// NewAttemptBook returns an empty book over the driver. onDone receives
// every attempt that finishes; it should settle the race with Win first.
func NewAttemptBook(d *Driver, onDone func(*MapAttempt)) *AttemptBook {
	return &AttemptBook{d: d, onDone: onDone}
}

// Launch starts one attempt on l.Node. The book fills in the wave and
// completion callback; the caller sets Task, TaskID, Node, BUs,
// LocalBUs, Speculative and ExtraFetchBytes.
func (b *AttemptBook) Launch(l MapLaunch) *MapAttempt {
	// A "wave" is one round of concurrent tasks on the node: the first
	// Slots launches are wave 0, the next Slots are wave 1, and so on.
	n := b.d.nodes.Put(l.Node.ID)
	l.Wave = n.launches / l.Node.Slots
	n.launches++
	if l.Speculative {
		b.activeSpec++
	}
	l.OnDone = b.onDone
	a := b.d.LaunchMap(l)
	if n := int(l.TaskID) + 1; n > len(b.tasks) {
		b.tasks = append(b.tasks, make([]taskState, n-len(b.tasks))...)
	}
	t := &b.tasks[l.TaskID]
	if t.live == nil {
		// The task's first live copy lends the list its storage.
		t.live = a.liveBuf[:0]
	}
	t.live = append(t.live, a)
	if len(t.live) == 1 && !l.Speculative {
		b.insertCand(a)
	} else {
		// A second live attempt (the speculative copy) disqualifies the
		// task: there is already a race in flight.
		b.removeCand(l.TaskID)
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
	t := &b.tasks[a.TaskID]
	if t.completed {
		return false // the winner already committed
	}
	t.completed = true
	live := t.live
	t.live = nil
	b.removeCand(a.TaskID)
	b.d.CommitOutput(a)
	if b.OnCommit != nil {
		b.OnCommit(a)
	}
	for _, other := range live {
		if other != a && other.Kill() {
			b.release(other)
		}
	}
	b.epoch++
	return true
}

// Drop forgets an attempt that died under a fault (crash or drain
// preemption; the driver already killed it). A surviving sole original —
// its speculative rival just died — is promoted back to candidacy. Drop
// reports whether the task is now orphaned: incomplete with no live copy,
// so the AM must recover its work.
func (b *AttemptBook) Drop(a *MapAttempt) bool {
	if a.Speculative {
		b.activeSpec--
	}
	t := &b.tasks[a.TaskID]
	list := t.live
	for i, other := range list {
		if other == a {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		list = nil
	}
	t.live = list
	if len(list) == 1 && !list[0].Speculative && !list[0].Killed() && !t.completed {
		b.insertCand(list[0])
	} else {
		b.removeCand(a.TaskID)
	}
	b.epoch++
	return !t.completed && len(list) == 0
}

// killTask force-kills every live attempt of a task (SkewTune's
// repartition).
func (b *AttemptBook) killTask(id TaskID) {
	t := &b.tasks[id]
	for _, a := range t.live {
		if a.Kill() {
			b.release(a)
		}
	}
	t.live = nil
	b.removeCand(id)
	b.epoch++
}

// reopen marks a completed task incomplete again because its committed
// output was lost with a node. It reports false if the task was not
// complete (already pending or running again).
func (b *AttemptBook) reopen(id TaskID) bool {
	if !b.completed(id) {
		return false
	}
	b.tasks[id].completed = false
	b.epoch++
	return true
}

// completed reports whether task id has committed its output.
func (b *AttemptBook) completed(id TaskID) bool {
	return int(id) < len(b.tasks) && b.tasks[id].completed
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
	b.Launch(MapLaunch{Task: victim.Task, TaskID: victim.TaskID, Node: node, BUs: bus, LocalBUs: local, Speculative: true})
	return true
}

// SpeculationIdle reports that Speculate would launch nothing on any
// node at this instant.
func (b *AttemptBook) SpeculationIdle(policy SpeculationPolicy) bool {
	return policy == nil || policy.Idle(b.d, b.cands, b.epoch, b.activeSpec)
}

// localFirst reorders BUs so the node's local replicas come first — the
// fetch accounting charges only the tail past the local count. A split
// that is all local or all remote is already in order and is returned
// as is; attempts never modify their BUs.
func (b *AttemptBook) localFirst(node *cluster.Node, bus []dfs.BUID) ([]dfs.BUID, int) {
	local := 0
	for _, id := range bus {
		if b.d.Store.HasReplica(node.ID, id) {
			local++
		}
	}
	if local == 0 || local == len(bus) {
		return bus, local
	}
	ordered := make([]dfs.BUID, local, len(bus))
	i := 0
	for _, id := range bus {
		if b.d.Store.HasReplica(node.ID, id) {
			ordered[i] = id
			i++
		} else {
			ordered = append(ordered, id)
		}
	}
	return ordered, local
}

// release frees a killed attempt's container and its speculative slot.
func (b *AttemptBook) release(a *MapAttempt) {
	if a.Speculative {
		b.activeSpec--
	}
	a.Container.Release()
}

// insertCand adds a task's sole original to the candidate set at its
// Start position, sliding younger entries (tombstones too) up one slot.
// A launch lands at the end after one comparison. The task must not be a
// candidate already. It is not: Launch adds a task's first live attempt,
// and Drop promotes an original whose rival's launch removed it.
func (b *AttemptBook) insertCand(a *MapAttempt) {
	b.cands = append(b.cands, nil)
	i := len(b.cands) - 1
	for ; i > 0; i-- {
		c := b.cands[i-1]
		if c != nil && c.Start <= a.Start {
			break
		}
		b.cands[i] = c
		if c != nil {
			b.tasks[c.TaskID].cand = i + 1
		}
	}
	b.cands[i] = a
	b.tasks[a.TaskID].cand = i + 1
}

// removeCand tombstones a task's candidate entry, if it has one.
func (b *AttemptBook) removeCand(id TaskID) {
	t := &b.tasks[id]
	if t.cand == 0 {
		return
	}
	b.cands[t.cand-1] = nil
	t.cand = 0
	b.holes++
	n := len(b.cands)
	for n > 0 && b.cands[n-1] == nil {
		n--
		b.holes--
	}
	b.cands = b.cands[:n]
	// Hadoop's endgame candidates are all mature, so LATE walks the whole
	// slice, tombstones too. At 1/32 that walk stays as short as over a
	// set with no tombstones (TestCountedCosts, walked/ev).
	if 32*b.holes > n {
		b.compact()
	}
}

// compact drops the tombstones, keeping the live entries' order.
func (b *AttemptBook) compact() {
	live := b.cands[:0]
	for _, a := range b.cands {
		if a != nil {
			live = append(live, a)
			b.tasks[a.TaskID].cand = len(live)
		}
	}
	clear(b.cands[len(live):])
	b.cands = live
	b.holes = 0
}
