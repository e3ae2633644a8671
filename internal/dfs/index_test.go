package dfs

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
)

// refStore replays placement and skew the way the map-indexed store did:
// a full sort of every member's (load, tie) pair per placement group, a
// per-BU replica copy, node → BU sets, and weights and payloads keyed by
// BUID. The dense store must agree with it on every query.
type refStore struct {
	clus        *cluster.Cluster
	repl        int
	rng         *randutil.Source
	next        BUID
	load        map[cluster.NodeID]int
	blockToNode map[BUID][]cluster.NodeID
	nodeToBlock map[cluster.NodeID]map[BUID]bool
	content     map[BUID][]byte
	weights     map[BUID]float64
}

func newRefStore(c *cluster.Cluster, repl int, seed int64) *refStore {
	r := &refStore{
		clus: c, repl: repl, rng: randutil.New(seed),
		load:        map[cluster.NodeID]int{},
		blockToNode: map[BUID][]cluster.NodeID{},
		nodeToBlock: map[cluster.NodeID]map[BUID]bool{},
		content:     map[BUID][]byte{},
	}
	for _, n := range c.Nodes {
		r.nodeToBlock[n.ID] = map[BUID]bool{}
	}
	return r
}

func (r *refStore) addFile(size int64, data []byte) {
	var group []cluster.NodeID
	for i := 0; int64(i)*BUSize < size; i++ {
		if i%GroupBUs == 0 {
			type cand struct {
				id   cluster.NodeID
				load int
				tie  int64
			}
			var cands []cand
			for _, n := range r.clus.Nodes {
				if !n.Offline() {
					cands = append(cands, cand{n.ID, r.load[n.ID], r.rng.Int63()})
				}
			}
			sort.Slice(cands, func(a, b int) bool {
				if cands[a].load != cands[b].load {
					return cands[a].load < cands[b].load
				}
				return cands[a].tie < cands[b].tie
			})
			group = group[:0]
			for _, c := range cands[:min(r.repl, len(cands))] {
				group = append(group, c.id)
			}
		}
		id := r.next
		r.next++
		r.blockToNode[id] = slices.Clone(group)
		for _, nid := range group {
			r.nodeToBlock[nid][id] = true
			r.load[nid]++
		}
		if data != nil {
			lo := int64(i) * BUSize
			r.content[id] = data[lo:min(lo+BUSize, size)]
		}
	}
}

func (r *refStore) applySkew(rng *randutil.Source, sigma float64) {
	r.weights = map[BUID]float64{}
	for id := BUID(0); id < r.next; id++ {
		r.weights[id] = math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
	}
}

// hosts is the replica intersection the way the map-indexed store took
// it: count each node over the BUs' replica lists, keep full counts, sort.
func (r *refStore) hosts(bus []BUID) []cluster.NodeID {
	counts := map[cluster.NodeID]int{}
	for _, id := range bus {
		for _, nid := range r.blockToNode[id] {
			counts[nid]++
		}
	}
	var out []cluster.NodeID
	for nid, c := range counts {
		if c == len(bus) {
			out = append(out, nid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refStore) weight(id BUID) float64 {
	if w, ok := r.weights[id]; ok {
		return w
	}
	return 1.0
}

// TestStoreIndicesMatchReference drives the dense store and the map
// reference through the same modeled and real-payload files, several per
// store, with ApplySkew before and after AddFile, and compares every
// (node, BU) query, including out-of-range IDs, and the hosts of every
// split at every legal split size.
func TestStoreIndicesMatchReference(t *testing.T) {
	payload := func(n int64, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i%251)
		}
		return b
	}
	type op struct {
		size  int64 // modeled file of this size
		data  []byte
		sigma float64 // > 0: ApplySkew instead of a file
	}
	cases := []struct {
		name   string
		nodes  int
		spares int
		repl   int
		ops    []op
	}{
		{"modeled", 10, 0, 3, []op{{size: 100*BUSize + 5}, {size: 3 * BUSize}, {size: BUSize / 2}}},
		{"real", 6, 0, 3, []op{{data: payload(3*BUSize+17, 1)}, {size: 40 * BUSize}, {data: payload(BUSize, 2)}}},
		{"skew-before-add", 8, 0, 2, []op{{size: 33 * BUSize}, {sigma: 0.8}, {size: 20*BUSize - 1}, {data: payload(BUSize+1, 3)}}},
		{"skew-after-add", 5, 0, 3, []op{{data: payload(2*BUSize, 4)}, {size: 17 * BUSize}, {sigma: 0.5}}},
		{"skew-twice", 7, 0, 3, []op{{size: 18 * BUSize}, {sigma: 0.5}, {size: 5 * BUSize}, {sigma: 1.2}, {size: 2 * BUSize}}},
		{"repl-capped", 2, 0, 3, []op{{size: 35 * BUSize}, {data: payload(3, 5)}}},
		{"offline-spares", 5, 3, 3, []op{{size: 50 * BUSize}, {sigma: 0.3}, {size: 7 * BUSize}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.Homogeneous(tc.nodes)
			c.AddSpares(tc.spares, cluster.NodeSpec{BaseSpeed: 1, Slots: 2})
			s := NewStore(c, tc.repl, randutil.New(7))
			ref := newRefStore(c, s.Replication(), 7)
			skewSeed := int64(100)
			var files []string
			for i, o := range tc.ops {
				switch {
				case o.sigma > 0:
					skewSeed++
					s.ApplySkew(randutil.New(skewSeed), o.sigma)
					ref.applySkew(randutil.New(skewSeed), o.sigma)
				case o.data != nil:
					files = append(files, string(rune('a'+i)))
					if _, err := s.AddFileWithData(files[len(files)-1], o.data); err != nil {
						t.Fatal(err)
					}
					ref.addFile(int64(len(o.data)), o.data)
				default:
					files = append(files, string(rune('a'+i)))
					if _, err := s.AddFile(files[len(files)-1], o.size); err != nil {
						t.Fatal(err)
					}
					ref.addFile(o.size, nil)
				}
			}
			checkAgainstRef(t, s, ref)
			for _, name := range files {
				for _, size := range []int{1, 2, 4, 8, 16, 32} {
					splits, err := s.Splits(name, size)
					if err != nil {
						t.Fatal(err)
					}
					for _, sp := range splits {
						if want := ref.hosts(sp.BUs); !slices.Equal(sp.Hosts, want) {
							t.Fatalf("file %s split %d of %d BUs: hosts %v, reference %v", name, sp.Index, size, sp.Hosts, want)
						}
					}
				}
			}
		})
	}
}

func checkAgainstRef(t *testing.T, s *Store, ref *refStore) {
	t.Helper()
	if BUID(len(s.blocks)) != ref.next {
		t.Fatalf("store has %d BUs, reference %d", len(s.blocks), ref.next)
	}
	perNode := map[cluster.NodeID]int{}
	for id := BUID(0); id < ref.next; id++ {
		reps := s.NodesFor(id)
		if !slices.Equal(reps, ref.blockToNode[id]) {
			t.Fatalf("BU %d replicas %v, reference %v", id, reps, ref.blockToNode[id])
		}
		if len(reps) != s.Replication() {
			t.Fatalf("BU %d has %d replicas, want %d", id, len(reps), s.Replication())
		}
		distinct := slices.Clone(reps)
		slices.Sort(distinct)
		if len(slices.Compact(distinct)) != len(reps) {
			t.Fatalf("BU %d replicas %v are not distinct", id, reps)
		}
		for _, n := range s.cluster.Nodes {
			in := slices.Contains(reps, n.ID)
			if got := s.HasReplica(n.ID, id); got != in || got != ref.nodeToBlock[n.ID][id] {
				t.Fatalf("HasReplica(%d, %d) = %v; in NodesFor %v, reference %v", n.ID, id, got, in, ref.nodeToBlock[n.ID][id])
			}
			if in {
				perNode[n.ID]++
			}
		}
		if got, want := s.Weight(id), ref.weight(id); got != want {
			t.Fatalf("Weight(%d) = %v, reference %v", id, got, want)
		}
		if got, want := s.Content(id), ref.content[id]; (got == nil) != (want == nil) || !bytes.Equal(got, want) {
			t.Fatalf("Content(%d) has %d bytes, reference %d", id, len(got), len(want))
		}
	}
	for _, n := range s.cluster.Nodes {
		if got := s.nodeLoad[n.ID]; got != perNode[n.ID] {
			t.Fatalf("nodeLoad[%d] = %d, replicas listed there %d", n.ID, got, perNode[n.ID])
		}
	}
	for _, id := range []BUID{-1, ref.next, ref.next + 100} {
		if s.Weight(id) != 1.0 || s.Content(id) != nil || s.NodesFor(id) != nil || s.HasReplica(0, id) {
			t.Fatalf("out-of-range BU %d: weight %v, content %v, replicas %v", id, s.Weight(id), s.Content(id), s.NodesFor(id))
		}
	}
}

// TestAddFileAllocs pins that placement allocates per placement group,
// not per BU: a one-group file costs the same whether it holds 1 BU or
// GroupBUs, and each further group adds a small constant. The sources
// are built outside the measured closure with their registers already
// allocated (drawn past the lazy prefix, then reseeded), so a large
// file's draws do not count the register against placement.
func TestAddFileAllocs(t *testing.T) {
	c := cluster.Homogeneous(64)
	const runs = 20
	allocs := func(bus int64) float64 {
		srcs := make([]*randutil.Source, runs+1) // AllocsPerRun adds a warm-up run
		for i := range srcs {
			srcs[i] = randutil.New(1)
			srcs[i].Int63s(make([]int64, 1000))
			srcs[i].Rand.Seed(1)
		}
		return testing.AllocsPerRun(runs, func() {
			s := NewStore(c, 3, srcs[0])
			srcs = srcs[1:]
			if _, err := s.AddFile("f", bus*BUSize); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, group := allocs(1), allocs(GroupBUs)
	if one != group {
		t.Fatalf("AddFile allocs: 1 BU %v, %d BUs (one group) %v; want equal", one, GroupBUs, group)
	}
	perGroup := allocs(2*GroupBUs) - group
	if perGroup > 2 {
		t.Fatalf("each placement group allocates %v times, want ≤ 2", perGroup)
	}
	const groups = 64
	if got, max := allocs(groups*GroupBUs), group+(groups-1)*perGroup; got > max {
		t.Fatalf("%d-group file allocates %v times, want ≤ %v (%v per group)", groups, got, max, perGroup)
	}
}
