package yarn

import (
	"fmt"
	"math"
	"slices"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
)

// InterJob multiplexes one ResourceManager across many concurrently
// running jobs. It registers itself as the RM's scheduler; a slot offer
// walks the active jobs in the order its Policy ranks them and consults
// each job's own ApplicationMaster in turn until one places work. The RM
// tells it of every grant, release, node loss and restore directly, and
// it keeps per-job running-container counts from those calls: the usage
// signal the fair and capacity policies rank by.
//
// Offers are the RM's hottest path (a Poke offers every node), so an
// offer consults only jobs that can act and re-ranks only when the
// ranking's inputs moved. Idle records each job's answer for the Poke
// that asked, and that Poke's own offers skip the jobs that answered
// true. The policy's order is cached across offers until a count, the
// job list or the cluster's slot total changes. The job list and the
// buffers an offer walks persist across offers, so an offer allocates
// nothing.
//
// Determinism: job ranking is a pure function of (policy, submission
// order, running counts), offers arrive in the RM's deterministic
// per-node order, and the RM's grant, release and node calls do no RNG
// draws and schedule no events — so a multi-job run is as replayable as
// a solo one.
type InterJob struct {
	eng    *sim.Engine
	rm     *RM
	policy Policy

	nextIndex int                // the next submitted job's Index
	jobs      []*JobHandle       // undone jobs, in the order Policy.Order last left them
	walks     [][]*JobHandle     // per nesting depth, the order that offer walks
	ranked    int                // the total slots walks[0] was ranked with; -1 once a job or count moved
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
	// Index is the submission order (0-based); FIFO rank and every
	// policy's tie-break.
	Index int
	// Name labels the job in panics and metrics.
	Name string
	// Queue indexes the capacity policy's queue config; FIFO and fair
	// ignore it.
	Queue int

	sched      Scheduler
	running    int
	idleIn     uint64 // the RM sweep whose Idle the job answered true; 0 after a false
	done       bool
	submitted  sim.Time
	firstGrant sim.Time
	granted    bool
}

// Running returns the job's current granted-container count.
func (h *JobHandle) Running() int { return h.running }

// Done reports whether the job has been retired from scheduling.
func (h *JobHandle) Done() bool { return h.done }

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
// restores. Call before rm.Start.
func NewInterJob(eng *sim.Engine, rm *RM, p Policy) *InterJob {
	ij := &InterJob{eng: eng, rm: rm, policy: p, ranked: -1, owners: make(map[int]ownerEntry)}
	rm.SetScheduler(ij)
	rm.inter = ij
	return ij
}

// Submit registers a job's scheduler under the given queue and pokes the
// RM so idle capacity is offered to it immediately.
func (ij *InterJob) Submit(name string, queue int, s Scheduler) *JobHandle {
	h := &JobHandle{
		Index:     ij.nextIndex,
		Name:      name,
		Queue:     queue,
		sched:     s,
		submitted: ij.eng.Now(),
	}
	ij.nextIndex++
	ij.jobs = append(ij.jobs, h)
	ij.ranked = -1
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
	ij.ranked = -1
}

// move shifts a job's running-container count, the input every policy
// ranks by, and so marks the cached order stale.
func (ij *InterJob) move(h *JobHandle, delta int) {
	h.running += delta
	ij.ranked = -1
}

// OnSlotFree implements Scheduler: one offer, consulted across jobs in
// policy order until someone takes the slot.
//
// An offer made by a Poke's node loop skips the jobs that answered true
// to that Poke's Idle. No event fires inside the loop, and nothing a
// job's Idle reads moves on another job's grant, so a job idle at the
// Poke is idle at each of its offers. Every other offer walks every
// job: heartbeat offers, offers inside an Idle audit, and offers after a
// nested Poke returns, whose Idle re-recorded every job's answer.
//
// Offers nest: an AM that pokes the RM from its own OnSlotFree (SkewTune
// queueing repartitioned work) runs a whole sweep of offers inside this
// one. So every offer walks its own copy of the order, in a buffer kept
// per nesting depth, and hands the outer offer its consulted job back on
// return. The outermost offer reuses the order it ranked last until
// something the policy reads changes; nested offers rank afresh. The
// nested sweep may take the offered node's last slot, so a walk stops
// once the node has none left.
func (ij *InterJob) OnSlotFree(n *cluster.Node) bool {
	if ij.depth == len(ij.walks) {
		ij.walks = append(ij.walks, nil)
	}
	walk := ij.walks[ij.depth]
	if total := ij.rm.TotalSlots(); ij.depth > 0 || total != ij.ranked {
		walk = append(walk[:0], ij.policy.Order(ij.jobs, total)...)
		ij.walks[ij.depth] = walk
		if ij.depth == 0 {
			ij.ranked = total
		}
	}
	sweep := ij.rm.sweep
	outer := ij.current
	ij.depth++
	placed := false
	for _, h := range walk {
		if sweep != 0 && h.idleIn == sweep {
			continue
		}
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

// Idle implements Scheduler: an offer is declined with no effect when
// every undone job's scheduler would decline it so. It asks every job
// and records each answer against the RM's newest sweep stamp, the one
// the calling Poke took, so that Poke's offers skip the idle jobs.
// Skipping a whole sweep skips Policy.Order too, which changes nothing
// later: the order is a pure function of the jobs, their counts and the
// total slots.
func (ij *InterJob) Idle() bool {
	idle := true
	for _, h := range ij.jobs {
		if h.sched.Idle() {
			h.idleIn = ij.rm.stamp
		} else {
			h.idleIn, idle = 0, false
		}
	}
	return idle
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

// Policy ranks active jobs for slot offers. The ranking must be a pure
// function of the active jobs, their counts and the total slots: same
// inputs, same order. InterJob relies on that to reuse an order until
// one of them changes.
type Policy interface {
	// Name labels the policy in scenario configs and docs.
	Name() string
	// Order returns the jobs to consult, highest priority first. Jobs
	// may be omitted to exclude them from this offer entirely (e.g. a
	// capacity queue at its cap).
	//
	// jobs holds the undone jobs. The caller keeps it across offers:
	// Submit appends, Retire deletes keeping the others' order, and
	// otherwise it stays in whatever order the previous call left it.
	// So for a policy that never permutes it (FIFO, capacity) it is in
	// submission order. A policy may permute jobs in place and return
	// it, or return a buffer it owns; the caller copies the result
	// before consulting any job. Order runs on an offer after any count
	// moved, and on every nested offer, so it should not allocate.
	Order(jobs []*JobHandle, totalSlots int) []*JobHandle
}

// FIFOPolicy offers every slot to the earliest-submitted job first; a
// later job runs only on capacity every earlier job declined, exactly
// Hadoop's FIFO scheduler.
type FIFOPolicy struct{}

// Name implements Policy.
func (FIFOPolicy) Name() string { return "fifo" }

// Order implements Policy: submission order, unchanged.
func (FIFOPolicy) Order(jobs []*JobHandle, _ int) []*JobHandle { return jobs }

// FairPolicy offers each slot to the job holding the fewest containers,
// ties broken by submission order — so backlogged jobs converge to equal
// running-container counts (max-min fairness at container granularity).
type FairPolicy struct{}

// Name implements Policy.
func (FairPolicy) Name() string { return "fair" }

// Order implements Policy. A stable sort by running count over
// submission order is the sort by the unique key (running, Index), so
// jobs is re-sorted in place by insertion on that key. Between offers
// only a few counts move by one, so jobs is nearly sorted already and
// the pass is close to linear.
func (FairPolicy) Order(jobs []*JobHandle, _ int) []*JobHandle {
	for i := 1; i < len(jobs); i++ {
		h := jobs[i]
		j := i
		for ; j > 0 && fairBefore(h, jobs[j-1]); j-- {
			jobs[j] = jobs[j-1]
		}
		jobs[j] = h
	}
	return jobs
}

// fairBefore reports whether a ranks ahead of b under FairPolicy.
func fairBefore(a, b *JobHandle) bool {
	return a.running < b.running || (a.running == b.running && a.Index < b.Index)
}

// Queue is one capacity-scheduler queue: a guaranteed share of the
// cluster and a hard cap. With every queue backlogged, each receives its
// Share; when a queue idles, others elastically borrow its capacity up
// to their MaxShare.
type Queue struct {
	// Name labels the queue.
	Name string
	// Share is the queue's guaranteed capacity fraction. Shares should
	// sum to ≤ 1.
	Share float64
	// MaxShare caps the queue's usage as a fraction of total slots;
	// 0 means uncapped (1.0).
	MaxShare float64
}

// CapacityPolicy implements YARN's CapacityScheduler shape: jobs are
// grouped into queues, the most underserved queue (usage relative to its
// guaranteed share) is offered capacity first, and a queue at its
// MaxShare cap is skipped outright. Within a queue, jobs run FIFO.
//
// Order reuses buffers held in the policy, so one CapacityPolicy value
// serves one InterJob.
type CapacityPolicy struct {
	Queues []Queue

	usage []int        // running containers per queue
	rank  []int        // queue indices, most underserved first
	out   []*JobHandle // the returned order
}

// NewCapacityPolicy validates the queue config.
func NewCapacityPolicy(queues []Queue) (*CapacityPolicy, error) {
	if len(queues) == 0 {
		return nil, fmt.Errorf("yarn: capacity policy needs at least one queue")
	}
	total := 0.0
	for i, q := range queues {
		if !(q.Share > 0) { // NaN too; +Inf fails the sum check below
			return nil, fmt.Errorf("yarn: queue %d (%s) needs a positive Share", i, q.Name)
		}
		if math.IsNaN(q.MaxShare) || math.IsInf(q.MaxShare, 0) {
			return nil, fmt.Errorf("yarn: queue %d (%s) has non-finite MaxShare %v", i, q.Name, q.MaxShare)
		}
		if q.MaxShare != 0 && q.MaxShare < q.Share {
			return nil, fmt.Errorf("yarn: queue %d (%s) has MaxShare %v below Share %v", i, q.Name, q.MaxShare, q.Share)
		}
		total += q.Share
	}
	if total > 1+1e-9 {
		return nil, fmt.Errorf("yarn: queue shares sum to %v > 1", total)
	}
	return &CapacityPolicy{Queues: queues}, nil
}

// Name implements Policy.
func (*CapacityPolicy) Name() string { return "capacity" }

// Cap returns a queue's hard container cap for the given cluster size.
func (p *CapacityPolicy) Cap(queue, totalSlots int) int {
	max := p.Queues[queue].MaxShare
	if max == 0 {
		max = 1
	}
	return int(max * float64(totalSlots))
}

// Order implements Policy: underserved queues first, FIFO within each,
// capped queues excluded. Queues tie in index order. jobs is read in
// submission order and left as it is; the result is the policy's own
// buffer.
func (p *CapacityPolicy) Order(jobs []*JobHandle, totalSlots int) []*JobHandle {
	if len(p.usage) != len(p.Queues) {
		p.usage = make([]int, len(p.Queues))
		p.rank = make([]int, len(p.Queues))
	}
	clear(p.usage)
	for _, h := range jobs {
		// Internal invariant: RunWorkload rejects a class whose queue is
		// out of range before any job is submitted.
		if h.Queue < 0 || h.Queue >= len(p.Queues) {
			panic(fmt.Sprintf("yarn: job %q in unknown queue %d", h.Name, h.Queue))
		}
		p.usage[h.Queue] += h.running
	}
	// Stable insertion sort of the queue indices by usage/share.
	for i := range p.rank {
		j := i
		for ; j > 0 && p.load(i) < p.load(p.rank[j-1]); j-- {
			p.rank[j] = p.rank[j-1]
		}
		p.rank[j] = i
	}
	p.out = p.out[:0]
	for _, q := range p.rank {
		if p.usage[q] >= p.Cap(q, totalSlots) {
			continue
		}
		for _, h := range jobs {
			if h.Queue == q {
				p.out = append(p.out, h)
			}
		}
	}
	return p.out
}

// load is a queue's usage relative to its guaranteed share.
func (p *CapacityPolicy) load(q int) float64 {
	return float64(p.usage[q]) / p.Queues[q].Share
}
