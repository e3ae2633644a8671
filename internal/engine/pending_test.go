package engine

import (
	"fmt"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
)

// refPending is the original pending representation — an
// insertion-ordered slice with linear scans — kept here as the model
// the FIFO-indexed pendingQueue must match pick for pick.
type refPending struct {
	splits []PendingSplit
}

func (r *refPending) add(p PendingSplit) { r.splits = append(r.splits, p) }
func (r *refPending) len() int           { return len(r.splits) }

func (r *refPending) takeLocal(id cluster.NodeID) (PendingSplit, bool) {
	for i, p := range r.splits {
		for _, h := range p.Hosts {
			if h == id {
				r.splits = append(r.splits[:i], r.splits[i+1:]...)
				return p, true
			}
		}
	}
	return PendingSplit{}, false
}

func (r *refPending) takeFIFO() (PendingSplit, bool) {
	if len(r.splits) == 0 {
		return PendingSplit{}, false
	}
	p := r.splits[0]
	r.splits = r.splits[1:]
	return p, true
}

// TestPendingQueueMatchesReference drives the queue and the reference
// model with identical random operation streams — adds (including
// requeues of previously taken splits, as crash recovery does), local
// takes against random nodes, FIFO takes — and requires every pick to
// match. This is the byte-identity argument for the scheduler: StockAM
// dispatch order is exactly the old linear scan's.
func TestPendingQueueMatchesReference(t *testing.T) {
	const nodes = 16
	for seed := int64(0); seed < 30; seed++ {
		rng := randutil.New(seed).Split("pending").Rand
		var q pendingQueue
		var ref refPending
		serial := 0
		mkSplit := func() PendingSplit {
			serial++
			hosts := make([]cluster.NodeID, 0, 3)
			for _, h := range rng.Perm(nodes)[:1+rng.Intn(3)] {
				hosts = append(hosts, cluster.NodeID(h))
			}
			return PendingSplit{Task: fmt.Sprintf("map-%04d", serial), Hosts: hosts}
		}
		var taken []PendingSplit
		for op := 0; op < 2000; op++ {
			if q.Len() != ref.len() {
				t.Fatalf("seed=%d op=%d: Len %d vs reference %d", seed, op, q.Len(), ref.len())
			}
			switch rng.Intn(4) {
			case 0: // fresh split
				p := mkSplit()
				q.add(p)
				ref.add(p)
			case 1: // requeue a previously dispatched split
				if len(taken) == 0 {
					continue
				}
				p := taken[rng.Intn(len(taken))]
				q.add(p)
				ref.add(p)
			case 2: // node-local pick
				id := cluster.NodeID(rng.Intn(nodes))
				gp, gok := q.takeLocal(id)
				wp, wok := ref.takeLocal(id)
				if gok != wok || gp.Task != wp.Task {
					t.Fatalf("seed=%d op=%d: takeLocal(%d) = (%q,%v), reference (%q,%v)",
						seed, op, id, gp.Task, gok, wp.Task, wok)
				}
				if gok {
					taken = append(taken, gp)
				}
			case 3: // FIFO pick
				gp, gok := q.takeFIFO()
				wp, wok := ref.takeFIFO()
				if gok != wok || gp.Task != wp.Task {
					t.Fatalf("seed=%d op=%d: takeFIFO = (%q,%v), reference (%q,%v)",
						seed, op, gp.Task, gok, wp.Task, wok)
				}
				if gok {
					taken = append(taken, gp)
				}
			}
		}
	}
}
