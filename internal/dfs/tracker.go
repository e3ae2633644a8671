package dfs

import (
	"sort"

	"flexmap/internal/cluster"
)

// Tracker implements the paper's Late Task Binding bookkeeping: the
// NodeToBlock and BlockToNode indices over a job's *unprocessed* BUs.
// Take removes BUs with mutual exclusion, guaranteeing each BU is handed
// to exactly one map task.
//
// The simulation is single-goroutine (event-driven), so no locking is
// needed; exclusivity is enforced by the authoritative `remaining` set —
// a BU leaves it the moment it is taken. Both indices are dense: byNode
// by NodeID, remaining by the BU's offset from the file's first BUID (a
// file's BUIDs are contiguous).
//
// # Performance
//
// The per-node index is a sorted BUID slice with a scan cursor rather
// than a hash set: TakeLocal walks the slice from the cursor, skipping
// entries already taken through another replica holder (lazy staleness),
// so a take of k BUs costs O(k + skipped) instead of the former
// collect-and-sort of the whole local set. Each slice position is passed
// by the cursor at most once over the tracker's lifetime, so skipping is
// amortized O(1). TakeRemote keeps a lazy max-heap of (live count, node)
// entries instead of rescanning every node per chunk. See DESIGN.md §11.
type Tracker struct {
	store     *Store
	byNode    []nodeSet   // by NodeID
	base      BUID        // the file's first BUID
	remaining []bool      // by BUID - base
	live      int         // true entries in remaining
	richest   []heapEntry // lazy max-heap by (live desc, node asc)
}

// nodeSet indexes the unprocessed BUs replicated on one node.
type nodeSet struct {
	// ids[start:] is sorted ascending and contains every unprocessed BU
	// with a replica on this node, possibly interleaved with stale
	// entries for BUs taken via another replica holder.
	ids   []BUID
	start int // scan cursor; everything before it is consumed or stale
	live  int // exact count of unprocessed BUs replicated here
}

// insert puts id back into the sorted active region (crash recovery). A
// stale entry still ahead of the cursor simply goes live again.
func (ns *nodeSet) insert(id BUID) {
	tail := ns.ids[ns.start:]
	i := sort.Search(len(tail), func(k int) bool { return tail[k] >= id })
	if i < len(tail) && tail[i] == id {
		return
	}
	pos := ns.start + i
	ns.ids = append(ns.ids, 0)
	copy(ns.ids[pos+1:], ns.ids[pos:])
	ns.ids[pos] = id
}

// heapEntry is a (possibly stale) upper bound on a node's live count.
// The heap invariant is that every node with live > 0 has at least one
// entry whose live field is ≥ the node's true live count, so the heap
// top — once validated against the true count — is exactly the node the
// old linear scan would have picked, including the lowest-ID tie-break.
type heapEntry struct {
	live int
	node cluster.NodeID
}

func entryAbove(a, b heapEntry) bool {
	if a.live != b.live {
		return a.live > b.live
	}
	return a.node < b.node
}

// NewTracker indexes all BUs of a file for late binding.
func NewTracker(store *Store, file string) (*Tracker, error) {
	f, ok := store.File(file)
	if !ok {
		return nil, errNoFile(file)
	}
	t := &Tracker{
		store:     store,
		byNode:    make([]nodeSet, store.cluster.Size()),
		base:      f.BUs[0], // AddFile rejects empty files
		remaining: make([]bool, len(f.BUs)),
		live:      len(f.BUs),
	}
	// A file's BUIDs ascend, so every per-node list is born sorted.
	for i, id := range f.BUs {
		t.remaining[i] = true
		for _, nid := range store.NodesFor(id) {
			ns := &t.byNode[nid]
			ns.ids = append(ns.ids, id)
			ns.live++
		}
	}
	for nid := range t.byNode {
		if live := t.byNode[nid].live; live > 0 {
			t.pushRichest(heapEntry{live: live, node: cluster.NodeID(nid)})
		}
	}
	return t, nil
}

type errNoFile string

func (e errNoFile) Error() string { return "dfs: no such file " + string(e) }

// Remaining returns the number of unprocessed BUs.
func (t *Tracker) Remaining() int { return t.live }

// Total returns the number of BUs the tracker started with.
func (t *Tracker) Total() int { return len(t.remaining) }

// take removes one BU from the pool, decrementing every replica holder's
// live count. Slice entries are left behind as lazy tombstones.
func (t *Tracker) take(id BUID) {
	t.remaining[id-t.base] = false
	t.live--
	for _, nid := range t.store.NodesFor(id) {
		t.byNode[nid].live--
	}
}

// Restore returns BUs to the unprocessed pool — crash recovery returning
// an elastic task's unfinished remainder (or lost committed output) to
// the binding maps, re-indexed under every replica holder. Restoring a
// BU that is still in the pool panics: it would let two tasks process it.
func (t *Tracker) Restore(bus []BUID) {
	for _, id := range bus {
		if t.remaining[id-t.base] {
			panic("dfs: Restore of a BU still in the binding maps")
		}
		t.remaining[id-t.base] = true
		t.live++
		for _, nid := range t.store.NodesFor(id) {
			ns := &t.byNode[nid]
			ns.insert(id)
			ns.live++
			t.pushRichest(heapEntry{live: ns.live, node: nid})
		}
	}
}

// TakeLocal removes and returns up to n unprocessed BUs that have replicas
// on node, in deterministic (ascending BUID) order.
func (t *Tracker) TakeLocal(node cluster.NodeID, n int) []BUID {
	if node < 0 || int(node) >= len(t.byNode) {
		return nil
	}
	ns := &t.byNode[node]
	if ns.live == 0 || n <= 0 {
		return nil
	}
	want := n
	if ns.live < want {
		want = ns.live
	}
	out := make([]BUID, 0, want)
	i := ns.start
	for i < len(ns.ids) && len(out) < n {
		id := ns.ids[i]
		i++
		if !t.remaining[id-t.base] {
			continue // taken via another replica holder; drop the tombstone
		}
		out = append(out, id)
		t.take(id)
	}
	ns.start = i
	return out
}

// TakeRemote removes and returns up to n unprocessed BUs following the
// paper's heuristic: prefer BUs stored on the node that currently has the
// most unprocessed BUs (spreading the remote-read burden to data-rich
// nodes). Ties break on lowest node ID for determinism.
func (t *Tracker) TakeRemote(n int) []BUID {
	var out []BUID
	for len(out) < n && t.live > 0 {
		nid, ok := t.popRichest()
		if !ok {
			break
		}
		out = append(out, t.TakeLocal(nid, n-len(out))...)
		if ns := t.byNode[nid]; ns.live > 0 {
			t.pushRichest(heapEntry{live: ns.live, node: nid})
		}
	}
	return out
}

// popRichest pops heap entries until one matches its node's true live
// count — by the upper-bound invariant that node is the richest (ties to
// the lowest node ID). Stale entries are either discarded (node drained)
// or re-pushed with the corrected count.
func (t *Tracker) popRichest() (cluster.NodeID, bool) {
	for len(t.richest) > 0 {
		top := t.richest[0]
		t.heapPop()
		cur := t.byNode[top.node].live
		if cur == top.live {
			return top.node, true
		}
		if cur > 0 {
			t.pushRichest(heapEntry{live: cur, node: top.node})
		}
	}
	return 0, false
}

func (t *Tracker) pushRichest(e heapEntry) {
	h := append(t.richest, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryAbove(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	t.richest = h
}

func (t *Tracker) heapPop() {
	h := t.richest
	n := len(h) - 1
	e := h[n]
	t.richest = h[:n]
	h = t.richest
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && entryAbove(h[c+1], h[c]) {
			c++
		}
		if !entryAbove(h[c], e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// Take builds an n-BU input split for a container on node: local BUs
// first, then remote BUs via the richest-node heuristic, exactly as LTB
// constructs elastic map inputs. The returned localBUs ⊆ bus were local to
// the node at take time.
func (t *Tracker) Take(node cluster.NodeID, n int) (bus []BUID, local int) {
	bus = t.TakeLocal(node, n)
	local = len(bus)
	if len(bus) < n {
		bus = append(bus, t.TakeRemote(n-len(bus))...)
	}
	return bus, local
}
