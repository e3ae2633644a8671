package engine

import (
	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
)

// pendingQueue indexes undispatched map splits for the stock AM. The
// former representation was a plain slice scanned linearly per offer —
// O(pending × hosts) in findLocal, which dominated large-cluster runs
// (188 µs/event at n=200 with 30k pending splits). The queue keeps the
// exact same dispatch semantics in amortized O(1) per pick:
//
//   - every enqueue gets seq = len(splits), so "first match in the
//     pending slice" (which was always insertion-ordered: removal
//     shifted, appends went to the tail) is exactly "live split with the
//     minimum seq";
//   - a global FIFO of seqs serves the remote pick, and one FIFO per
//     host node serves the node-local pick. Seqs only grow, so each
//     FIFO receives them in increasing order and its minimum is always
//     its front;
//   - pops are lazy: a split taken through one FIFO leaves its seq in
//     the others, discarded when it reaches the front — the same
//     lazy-deletion discipline as dfs.Tracker's per-node indices and the
//     sim queue's canceled events.
//
// Determinism: every pick is "minimum live seq" under a total order, so
// dispatch order is a pure function of the enqueue sequence.
type pendingQueue struct {
	splits []PendingSplit // by seq; retained after pop (cleared to free BUs)
	live   []bool         // by seq
	count  int
	fifo   []int
	byHost cluster.NodeTable[hostFIFO] // the split hosts only
}

// hostFIFO is one host's seqs. reserve counts the host's splits in
// reserved, then cuts seqs from one shared array.
type hostFIFO struct {
	seqs     []int
	reserved int
}

// Len returns the number of undispatched splits.
func (q *pendingQueue) Len() int { return q.count }

// reserve sizes an empty queue for splits about to be enqueued: the
// per-host FIFOs are cut from one array, each with room for its host's
// splits, and the host table learns the fleet size. Later adds grow them
// as usual.
func (q *pendingQueue) reserve(splits []dfs.Split, nodes int) {
	q.byHost.SetFleet(nodes)
	q.splits = make([]PendingSplit, 0, len(splits))
	q.live = make([]bool, 0, len(splits))
	q.fifo = make([]int, 0, len(splits))
	total := 0
	for _, sp := range splits {
		total += len(sp.Hosts)
	}
	q.byHost.Reserve(min(nodes, total))
	for _, sp := range splits {
		for _, h := range sp.Hosts {
			q.byHost.Put(h).reserved++
		}
	}
	all := make([]int, total)
	q.byHost.Each(func(_ cluster.NodeID, f *hostFIFO) {
		f.seqs, all = all[:0:f.reserved], all[f.reserved:]
	})
}

// add enqueues a split behind everything currently pending.
func (q *pendingQueue) add(p PendingSplit) {
	seq := len(q.splits)
	q.splits = append(q.splits, p)
	q.live = append(q.live, true)
	q.count++
	q.fifo = append(q.fifo, seq)
	for _, h := range p.Hosts {
		f := q.byHost.Put(h)
		f.seqs = append(f.seqs, seq)
	}
}

// takeLocal dequeues the oldest pending split hosting node id, if any.
func (q *pendingQueue) takeLocal(id cluster.NodeID) (PendingSplit, bool) {
	f := q.byHost.Get(id)
	if f == nil {
		return PendingSplit{}, false
	}
	return q.pop(&f.seqs)
}

// takeFIFO dequeues the oldest pending split, if any.
func (q *pendingQueue) takeFIFO() (PendingSplit, bool) { return q.pop(&q.fifo) }

// pop dequeues the first live seq of fifo and returns its split,
// releasing the stored copy's slices for the garbage collector.
func (q *pendingQueue) pop(fifo *[]int) (PendingSplit, bool) {
	for len(*fifo) > 0 {
		seq := (*fifo)[0]
		*fifo = (*fifo)[1:]
		if q.live[seq] {
			p := q.splits[seq]
			q.splits[seq] = PendingSplit{}
			q.live[seq] = false
			q.count--
			return p, true
		}
	}
	return PendingSplit{}, false
}
