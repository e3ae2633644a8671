package cluster

import (
	"slices"
	"unsafe"
)

// NodeTable holds one value per node for the nodes a consumer touches.
// Per-job state (a job's running attempts, its intermediate bytes, its
// per-host queues) lives here instead of in a slice indexed by NodeID,
// so its size follows the nodes the job uses, not the fleet. Get and Put
// are O(1), and Each (or Slots and Slot, with no callback) walks the
// entries in NodeID order.
//
// A table starts sparse: a hash from NodeID to a position in a slice of
// entries, about sparseEntryBytes per entry beyond the value. A plain
// slice indexed by NodeID over the fleet named by SetFleet needs no hash
// and no sort, so the table switches to it for good once it would take
// at most twice the sparse form's bytes. A job that touches a large part
// of a 10,000-node fleet thus pays what a fleet-sized array costs, and no
// more.
//
// The zero value is an empty table that stays sparse. A pointer Get or
// Put returns stays valid until the next Put of a node not yet in the
// table or the next Each or Slots.
type NodeTable[T any] struct {
	n     int // entries
	fleet int // SetFleet's node count; 0 keeps the table sparse

	// Sparse form: entries in insertion order, and sorted by NodeID
	// unless unsorted. Slots sorts them and re-points index.
	index    map[NodeID]int32 // entry position by node
	entries  []nodeEntry[T]
	unsorted bool

	// Dense form: vals is indexed by NodeID and has marks the NodeIDs
	// with an entry. has is nil while the table is sparse.
	vals []T
	has  []bool
}

// nodeEntry is one entry of a sparse table.
type nodeEntry[T any] struct {
	id  NodeID
	val T
}

// sparseEntryBytes is about what the sparse form costs per entry beside
// its value: the hash slot and the NodeID, with the slack their growth
// leaves.
const sparseEntryBytes = 40

// SetFleet names the fleet size the table's nodes come from, so that it
// can switch to a slice indexed by NodeID.
func (t *NodeTable[T]) SetFleet(nodes int) { t.fleet = nodes }

// Reserve readies an empty table for about n nodes, so that it does not
// grow its way there: it goes dense at once if n entries would make it
// dense, and otherwise sizes its sparse form for n.
func (t *NodeTable[T]) Reserve(n int) {
	switch {
	case t.n > 0:
	case t.denseAt(n):
		t.densify()
	default:
		t.index = make(map[NodeID]int32, n)
		t.entries = make([]nodeEntry[T], 0, n)
	}
}

// denseAt reports whether the dense form takes at most twice the bytes
// of the sparse form at n entries.
func (t *NodeTable[T]) denseAt(n int) bool {
	var zero T
	size := int(unsafe.Sizeof(zero))
	return t.fleet > 0 && 2*n*(size+sparseEntryBytes) >= t.fleet*(size+1)
}

// Get returns the node's value, or nil if the table has no entry for it.
func (t *NodeTable[T]) Get(id NodeID) *T {
	if t.has != nil {
		if uint(id) < uint(len(t.has)) && t.has[id] {
			return &t.vals[id]
		}
		return nil
	}
	if i, ok := t.index[id]; ok {
		return &t.entries[i].val
	}
	return nil
}

// Put returns the node's value, adding a zero value on first use.
func (t *NodeTable[T]) Put(id NodeID) *T {
	if v := t.Get(id); v != nil {
		return v
	}
	if id < 0 {
		panic("cluster: NodeTable.Put of a negative NodeID")
	}
	t.n++
	if t.has == nil && t.denseAt(t.n) {
		t.densify()
	}
	if t.has != nil {
		if n := int(id) + 1; n > len(t.has) {
			t.has = slices.Grow(t.has, n-len(t.has))[:n]
			old := len(t.vals)
			t.vals = slices.Grow(t.vals, n-old)[:n]
			clear(t.vals[old:])
		}
		t.has[id] = true
		return &t.vals[id]
	}
	if t.index == nil {
		t.index = make(map[NodeID]int32)
	}
	i := len(t.entries)
	t.index[id] = int32(i)
	if i > 0 && t.entries[i-1].id > id {
		t.unsorted = true
	}
	t.entries = append(t.entries, nodeEntry[T]{id: id})
	return &t.entries[i].val
}

// densify moves the sparse entries into slices indexed by NodeID, sized
// to the fleet or to the largest NodeID so far.
func (t *NodeTable[T]) densify() {
	size := t.fleet
	for _, e := range t.entries {
		size = max(size, int(e.id)+1)
	}
	t.vals, t.has = make([]T, size), make([]bool, size)
	for _, e := range t.entries {
		t.vals[e.id], t.has[e.id] = e.val, true
	}
	t.index, t.entries, t.unsorted = nil, nil, false
}

// Slots returns how many slots Slot reads: Slot(0) to Slot(Slots()-1)
// are the entries in ascending NodeID order, with a nil value for each
// NodeID a dense table holds no entry for. It sorts a sparse table's
// entries first, so no Put of a new node may come between it and the
// Slot calls.
func (t *NodeTable[T]) Slots() int {
	if t.has != nil {
		return len(t.has)
	}
	if t.unsorted {
		slices.SortFunc(t.entries, func(a, b nodeEntry[T]) int { return int(a.id - b.id) })
		for i, e := range t.entries {
			t.index[e.id] = int32(i)
		}
		t.unsorted = false
	}
	return len(t.entries)
}

// Slot returns slot i's node and value; the value is nil for an empty
// slot. See Slots.
func (t *NodeTable[T]) Slot(i int) (NodeID, *T) {
	if t.has != nil {
		if t.has[i] {
			return NodeID(i), &t.vals[i]
		}
		return NodeID(i), nil
	}
	return t.entries[i].id, &t.entries[i].val
}

// Each calls fn on every entry in ascending NodeID order. fn may change
// the values but must not Put a new node.
func (t *NodeTable[T]) Each(fn func(NodeID, *T)) {
	for i := range t.Slots() {
		if id, v := t.Slot(i); v != nil {
			fn(id, v)
		}
	}
}
