package yarn

import (
	"fmt"
	"slices"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
)

// InterJob multiplexes one ResourceManager across many concurrently
// running jobs. It registers itself as the RM's scheduler; a slot offer
// walks the active jobs in policy order and consults each job's own
// ApplicationMaster in turn until one places work. The policy is FIFO
// (submission order, Hadoop's FIFO scheduler) or fair (fewest running
// containers first, ties by submission order: max-min fairness at
// container granularity). The RM tells it of every grant, release, node
// loss and restore directly, and it keeps per-job running-container
// counts from those calls: the usage signal the fair policy ranks by.
//
// Offers are the RM's hottest path (a Poke offers every node), so an
// offer consults only jobs that can act and re-ranks only when the
// ranking's inputs moved. Bound records each job's bound for the Poke
// that asked, and that Poke's own offers skip a bound job on nodes
// outside its bound, so a job bound to no node (idle) is skipped on
// every node. When every job is bound, the Poke offers only the union
// of their bounds. The order is cached across offers until a count or
// the job list changes. The job list and the buffers an offer walks
// persist across offers, so an offer allocates nothing.
//
// Determinism: job ranking is a pure function of (policy, submission
// order, running counts), offers arrive in the RM's deterministic
// per-node order, and the RM's grant, release and node calls do no RNG
// draws and schedule no events — so a multi-job run is as replayable as
// a solo one.
type InterJob struct {
	eng  *sim.Engine
	rm   *RM
	fair bool

	nextIndex int                // the next submitted job's Index
	jobs      []*JobHandle       // undone jobs: submission order under FIFO, the last fairOrder under fair
	walks     [][]*JobHandle     // per nesting depth, the order that offer walks
	stale     bool               // walks[0] needs re-ranking: a job or count moved
	depth     int                // offers in flight
	owners    map[int]ownerEntry // container ID → owning job while live
	current   *JobHandle         // job being consulted for the innermost offer
	consulted int64              // job schedulers consulted by offers, for tests
}

// ownerEntry remembers which job owns a container and where it runs, so
// node loss can write off containers that died without a Release.
type ownerEntry struct {
	job  *JobHandle
	node cluster.NodeID
}

// JobHandle is one job's registration with the inter-job scheduler.
type JobHandle struct {
	// Index is the submission order (0-based); FIFO rank and fair's
	// tie-break.
	Index int
	// Name labels the job in panics and metrics.
	Name string

	sched      Scheduler
	running    int
	boundIn    uint64           // the RM sweep whose Bound bound the job; 0 when unbound
	bound      []cluster.NodeID // the only nodes the job can act on in sweep boundIn, sorted; none if idle
	done       bool
	submitted  sim.Time
	firstGrant sim.Time
	granted    bool
}

// nextConsult returns the index of the first job from walk[i] on that
// an offer of node id must consult in the given sweep: one that is not
// bound in the sweep, or whose bound holds the node. It returns
// len(walk) when there is none. A separate loop with no calls keeps
// the skip cheap, and since a bound is sorted, most nodes fall outside
// its ends.
func nextConsult(walk []*JobHandle, i int, sweep uint64, id cluster.NodeID) int {
	if sweep == 0 {
		return i
	}
	for ; i < len(walk); i++ {
		h := walk[i]
		if b := h.bound; h.boundIn != sweep || len(b) > 0 && id >= b[0] && id <= b[len(b)-1] && slices.Contains(b, id) {
			return i
		}
	}
	return i
}

// QueueWait returns the delay from submission to the job's first
// container grant, or -1 if it never received one.
func (h *JobHandle) QueueWait() sim.Duration {
	if !h.granted {
		return -1
	}
	return sim.Duration(h.firstGrant - h.submitted)
}

// NewInterJob wires the multiplexer into the RM as its scheduler and as
// the one party the RM tells of grants, releases, node losses and
// restores. fair selects the fair policy over FIFO. Call before
// rm.Start.
func NewInterJob(eng *sim.Engine, rm *RM, fair bool) *InterJob {
	ij := &InterJob{eng: eng, rm: rm, fair: fair, stale: true, owners: make(map[int]ownerEntry)}
	rm.SetScheduler(ij)
	rm.inter = ij
	return ij
}

// Submit registers a job's scheduler and pokes the RM so idle capacity
// is offered to it immediately.
func (ij *InterJob) Submit(name string, s Scheduler) *JobHandle {
	h := &JobHandle{
		Index:     ij.nextIndex,
		Name:      name,
		sched:     s,
		submitted: ij.eng.Now(),
	}
	ij.nextIndex++
	ij.jobs = append(ij.jobs, h)
	ij.stale = true
	ij.rm.Poke()
	return h
}

// Retire removes a finished job from scheduling: its scheduler is no
// longer consulted for offers. Containers it still holds drain through
// the normal release path (or die with their nodes), so a failed job
// cannot wedge the queue. Retiring twice is a no-op.
func (ij *InterJob) Retire(h *JobHandle) {
	if h.done {
		return
	}
	h.done = true
	i := slices.Index(ij.jobs, h)
	ij.jobs = slices.Delete(ij.jobs, i, i+1)
	ij.stale = true
}

// move shifts a job's running-container count, the input fair ranks
// by, and so marks the cached order stale.
func (ij *InterJob) move(h *JobHandle, delta int) {
	h.running += delta
	ij.stale = true
}

// OnSlotFree implements Scheduler: one offer, consulted across jobs in
// policy order until someone takes the slot.
//
// An offer made by a Poke's node loop skips the jobs whose bound
// recorded by that Poke's Bound excludes the node. No event fires inside
// the loop, and nothing a job's Bound reads moves on another job's
// grant, so a job idle at the Poke is idle at each of its offers, and a
// bound job's bound only shrinks as its own grants drain its queues.
// Every other offer walks every job: heartbeat offers, offers inside a
// Bound audit, and offers after a nested Poke returns, whose Bound
// re-recorded every job's answer.
//
// Offers nest: an AM that pokes the RM from its own OnSlotFree (SkewTune
// queueing repartitioned work) runs a whole sweep of offers inside this
// one. So every offer walks its own copy of the order, in a buffer kept
// per nesting depth, and hands the outer offer its consulted job back on
// return. The outermost offer reuses the order it ranked last until
// something the ranking reads changes; nested offers rank afresh. The
// nested sweep may take the offered node's last slot, so a walk stops
// once the node has none left.
func (ij *InterJob) OnSlotFree(n *cluster.Node) bool {
	if ij.depth == len(ij.walks) {
		ij.walks = append(ij.walks, nil)
	}
	walk := ij.walks[ij.depth]
	if ij.depth > 0 || ij.stale {
		if ij.fair {
			fairOrder(ij.jobs)
		}
		walk = append(walk[:0], ij.jobs...)
		ij.walks[ij.depth] = walk
		if ij.depth == 0 {
			ij.stale = false
		}
	}
	sweep := ij.rm.sweep
	outer := ij.current
	ij.depth++
	placed := false
	for i := nextConsult(walk, 0, sweep, n.ID); i < len(walk); i = nextConsult(walk, i+1, sweep, n.ID) {
		h := walk[i]
		ij.current = h
		ij.consulted++
		if placed = h.sched.OnSlotFree(n); placed || ij.rm.free[n.ID] <= 0 {
			break
		}
	}
	ij.depth--
	ij.current = outer
	return placed
}

// Bound implements Scheduler: an offer on a node is declined with no
// effect when every undone job's scheduler would decline it so. It asks
// every job and records each answer against the RM's newest sweep stamp,
// the one the calling Poke took, so that Poke's offers skip each bound
// job outside its bound; an unbound job is recorded as such. When every
// job is bound, an offer on a node outside the union of their bounds
// consults nobody, so the union is the Poke's bound, empty when every
// job is idle. Skipping a whole sweep skips the ranking too, which
// changes nothing later: the order is a pure function of the jobs and
// their counts.
func (ij *InterJob) Bound(dst []cluster.NodeID) ([]cluster.NodeID, bool) {
	dst = dst[:0]
	stamp := ij.rm.stamp
	all := true
	for _, h := range ij.jobs {
		var ok bool
		if h.bound, ok = h.sched.Bound(h.bound); !ok {
			h.boundIn, all = 0, false
			continue
		}
		h.boundIn = stamp
		if all {
			dst = append(dst, h.bound...)
		}
	}
	if !all {
		return dst[:0], false
	}
	slices.Sort(dst)
	return slices.Compact(dst), true
}

// onGrant attributes a fresh container to the job whose scheduler is
// being consulted. A grant with no consultation in flight means some
// code path acquired capacity outside the offer protocol — a bug the
// multi-job invariants cannot survive, so it panics.
func (ij *InterJob) onGrant(c *Container) {
	if ij.current == nil {
		panic(fmt.Sprintf("yarn: container %d acquired outside a slot offer", c.ID))
	}
	ij.owners[c.ID] = ownerEntry{job: ij.current, node: c.Node.ID}
	ij.move(ij.current, 1)
	if !ij.current.granted {
		ij.current.granted = true
		ij.current.firstGrant = ij.eng.Now()
	}
}

// onRelease retires a container from its owner's count. Containers
// already written off by node loss are unknown here; that is fine.
func (ij *InterJob) onRelease(c *Container) {
	if e, ok := ij.owners[c.ID]; ok {
		ij.move(e.job, -1)
		delete(ij.owners, c.ID)
	}
}

// purgeNode writes off every live container on a node. Runs on both
// NodeLost and NodeRestored: crashed containers are abandoned without a
// Release, and a brief outage can restore a node that was never declared
// lost. The double call is idempotent.
func (ij *InterJob) purgeNode(id cluster.NodeID) {
	for cid, e := range ij.owners {
		if e.node == id {
			ij.move(e.job, -1)
			delete(ij.owners, cid)
		}
	}
}

// fairOrder ranks jobs for the fair policy, in place. A stable sort by
// running count over submission order is the sort by the unique key
// (running, Index), so jobs is re-sorted by insertion on that key.
// Between offers only a few counts move by one, so jobs is nearly sorted
// already and the pass is close to linear.
func fairOrder(jobs []*JobHandle) {
	for i := 1; i < len(jobs); i++ {
		h := jobs[i]
		j := i
		for ; j > 0 && fairBefore(h, jobs[j-1]); j-- {
			jobs[j] = jobs[j-1]
		}
		jobs[j] = h
	}
}

// fairBefore reports whether a ranks ahead of b under the fair policy.
func fairBefore(a, b *JobHandle) bool {
	return a.running < b.running || (a.running == b.running && a.Index < b.Index)
}
