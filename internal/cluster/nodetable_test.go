package cluster

import (
	"slices"
	"testing"

	"flexmap/internal/randutil"
)

// TestNodeTableMatchesMap replays random Puts, Gets and updates on tables
// of several fleet sizes and Reserve hints, and after every operation
// checks the entry count, the looked-up values and Each's order against a map. The
// scripts cross the sparse-to-dense switch, grow a dense table past its
// fleet, and Put nodes out of order so Each must sort.
func TestNodeTableMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		fleet, reserve, ids int
	}{
		{0, 0, 50},       // zero value: sparse for good
		{64, 0, 64},      // turns dense part-way
		{64, 0, 96},      // and grows past its fleet
		{10000, 0, 1000}, // stays sparse over a short script
		{64, 48, 64},     // a reservation that starts dense
		{1000, 8, 1000},  // a reservation that starts sparse
	} {
		var tab NodeTable[int]
		tab.SetFleet(tc.fleet)
		if tc.reserve > 0 {
			tab.Reserve(tc.reserve)
		}
		ref := map[NodeID]int{}
		rng := randutil.New(int64(tc.fleet + tc.ids))
		for op := 0; op < 400; op++ {
			id := NodeID(rng.Intn(tc.ids))
			switch rng.Intn(3) {
			case 0:
				*tab.Put(id) += op
				ref[id] += op
			case 1:
				got, want := tab.Get(id), ref[id]
				if _, ok := ref[id]; ok != (got != nil) || (got != nil && *got != want) {
					t.Fatalf("%+v op %d: Get(%d) = %v, want %v (present %v)", tc, op, id, got, want, ok)
				}
			case 2:
				var ids []NodeID
				tab.Each(func(id NodeID, v *int) {
					if *v != ref[id] {
						t.Fatalf("%+v op %d: Each gave node %d value %d, want %d", tc, op, id, *v, ref[id])
					}
					ids = append(ids, id)
				})
				want := make([]NodeID, 0, len(ref))
				for id := range ref {
					want = append(want, id)
				}
				slices.Sort(want)
				if !slices.Equal(ids, want) {
					t.Fatalf("%+v op %d: Each visited %v, want %v", tc, op, ids, want)
				}
			}
			if tab.n != len(ref) {
				t.Fatalf("%+v op %d: %d entries, want %d", tc, op, tab.n, len(ref))
			}
		}
		if tab.Get(-1) != nil || tab.Get(NodeID(tc.ids)) != nil {
			t.Fatalf("%+v: a node never Put has an entry", tc)
		}
	}
}

// TestNodeTableSwitchesToDense pins when a table turns dense: when a
// slice over its fleet would take at most twice the bytes of its sparse
// form, and not before.
func TestNodeTableSwitchesToDense(t *testing.T) {
	// An 8-byte value costs 48 bytes an entry sparse and 9 bytes a node
	// dense, so a 96-node fleet turns dense at its 9th entry.
	var tab NodeTable[int64]
	tab.SetFleet(96)
	for id := NodeID(0); id < 8; id++ {
		tab.Put(id * 11)
	}
	if tab.has != nil {
		t.Fatal("dense at 8 entries of 96")
	}
	tab.Put(90)
	if tab.has == nil || len(tab.vals) != 96 || tab.index != nil {
		t.Fatalf("at 9 entries: dense %v over %d nodes, index %v", tab.has != nil, len(tab.vals), tab.index)
	}
	var small NodeTable[int64]
	small.SetFleet(96)
	small.Reserve(4)
	if small.has != nil || cap(small.entries) != 4 {
		t.Fatalf("Reserve(4): dense %v, capacity %d", small.has != nil, cap(small.entries))
	}
	small.Put(3)
	small.Reserve(96) // ignored once the table holds an entry
	if small.has != nil {
		t.Fatal("Reserve turned a non-empty table dense")
	}
}

func TestNodeTablePutNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Put(-1) did not panic")
		}
	}()
	var tab NodeTable[int]
	tab.Put(-1)
}
