package dfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

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
	size        map[BUID]int64
	online      map[BUID]int // members when the BU was placed
	content     map[BUID][]byte
	weights     map[BUID]float64
}

func newRefStore(c *cluster.Cluster, repl int, seed int64) *refStore {
	r := &refStore{
		clus: c, repl: repl, rng: randutil.New(seed),
		load:        map[cluster.NodeID]int{},
		blockToNode: map[BUID][]cluster.NodeID{},
		nodeToBlock: map[cluster.NodeID]map[BUID]bool{},
		size:        map[BUID]int64{},
		online:      map[BUID]int{},
		content:     map[BUID][]byte{},
	}
	for _, n := range c.Nodes {
		r.nodeToBlock[n.ID] = map[BUID]bool{}
	}
	return r
}

func (r *refStore) addFile(size int64, data []byte) {
	var group []cluster.NodeID
	online := 0
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
			online = len(cands)
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
		lo := int64(i) * BUSize
		r.size[id] = min(lo+BUSize, size) - lo
		r.online[id] = online
		if data != nil {
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

// storeOp is one step of a store scenario: a modeled file, a real one,
// ApplySkew, or a membership change between files.
type storeOp struct {
	size   int64   // > 0: AddFile of this size
	data   []byte  // non-nil: AddFileWithData
	sigma  float64 // > 0: ApplySkew
	toggle bool    // release node if it is a member, else join it
	node   cluster.NodeID
}

// storeCase is a store scenario: a fleet, its offline spares, the
// replication factor asked for, and the steps to run.
type storeCase struct {
	name   string
	nodes  int
	spares int
	repl   int
	ops    []storeOp
}

func payload(n int64, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%251)
	}
	return b
}

// storeCases are TestStoreIndicesMatchReference's scenarios and
// FuzzStoreMatchesReference's seed corpus.
func storeCases() []storeCase {
	return []storeCase{
		{"modeled", 10, 0, 3, []storeOp{{size: 100*BUSize + 5}, {size: 3 * BUSize}, {size: BUSize / 2}}},
		{"real", 6, 0, 3, []storeOp{{data: payload(3*BUSize+17, 1)}, {size: 40 * BUSize}, {data: payload(BUSize, 2)}}},
		{"skew-before-add", 8, 0, 2, []storeOp{{size: 33 * BUSize}, {sigma: 0.8}, {size: 20*BUSize - 1}, {data: payload(BUSize+1, 3)}}},
		{"skew-after-add", 5, 0, 3, []storeOp{{data: payload(2*BUSize, 4)}, {size: 17 * BUSize}, {sigma: 0.5}}},
		{"skew-twice", 7, 0, 3, []storeOp{{size: 18 * BUSize}, {sigma: 0.5}, {size: 5 * BUSize}, {sigma: 1.2}, {size: 2 * BUSize}}},
		{"repl-capped", 2, 0, 3, []storeOp{{size: 35 * BUSize}, {data: payload(3, 5)}}},
		{"offline-spares", 5, 3, 3, []storeOp{{size: 50 * BUSize}, {sigma: 0.3}, {size: 7 * BUSize}}},
		{"scale-in-below-repl", 3, 1, 3, []storeOp{{size: 20 * BUSize}, {toggle: true, node: 1}, {size: 40*BUSize - 3}, {toggle: true, node: 3}, {size: 9 * BUSize}}},
		// More members than rankHead: after the first draws a group ranks
		// only ties that can win. Spares join and members leave between
		// files, and a spare joins at load 0 once every member holds data,
		// so the minimum load must be recounted over the new members.
		{"filtered-churn", 210, 4, 4, []storeOp{
			{size: 160 * BUSize}, {toggle: true, node: 211}, {size: 160 * BUSize}, {toggle: true, node: 7},
			{size: 160 * BUSize}, {size: 160 * BUSize}, {size: 160 * BUSize}, {size: 160 * BUSize},
			{toggle: true, node: 211}, {toggle: true, node: 210}, {size: 97*BUSize + 1}, {data: payload(BUSize+9, 6)},
		}},
		loadLevels(1), loadLevels(2), loadLevels(3), loadLevels(4),
	}
}

// loadLevels is a store scenario on just over rankHead members whose
// files raise the minimum load about repl times, each file ending in a
// short group.
func loadLevels(repl int) storeCase {
	tc := storeCase{name: fmt.Sprint("load-levels-r", repl), nodes: rankHead + 3, repl: repl}
	for range 8 {
		tc.ops = append(tc.ops, storeOp{size: (maxFuzzBUs-5)*BUSize + 7})
	}
	return tc
}

// run drives a store and the reference through the case's steps and
// returns both with the names of the files added.
func (tc storeCase) run(t *testing.T) (*Store, *refStore, []string) {
	t.Helper()
	c := cluster.Homogeneous(tc.nodes)
	c.AddSpares(tc.spares, cluster.NodeSpec{BaseSpeed: 1, Slots: 2})
	s := NewStore(c, tc.repl, randutil.New(7))
	ref := newRefStore(c, s.Replication(), 7)
	skewSeed := int64(100)
	var files []string
	for i, o := range tc.ops {
		name := fmt.Sprint("f", i)
		switch {
		case o.sigma > 0:
			skewSeed++
			s.ApplySkew(randutil.New(skewSeed), o.sigma)
			ref.applySkew(randutil.New(skewSeed), o.sigma)
		case o.toggle:
			if c.Node(o.node).Offline() {
				c.JoinNode(o.node, 0)
			} else {
				c.ReleaseNode(o.node, 0)
			}
		case o.data != nil:
			if _, err := s.AddFileWithData(name, o.data); err != nil {
				t.Fatal(err)
			}
			ref.addFile(int64(len(o.data)), o.data)
			files = append(files, name)
		default:
			if _, err := s.AddFile(name, o.size); err != nil {
				t.Fatal(err)
			}
			ref.addFile(o.size, nil)
			files = append(files, name)
		}
	}
	return s, ref, files
}

// TestStoreIndicesMatchReference drives the store and the map reference
// through the same modeled and real-payload files, several per store,
// with ApplySkew before and after AddFile and members released below
// the replication factor, and compares every (node, BU) query, including
// out-of-range IDs, and every split at every legal split size.
func TestStoreIndicesMatchReference(t *testing.T) {
	for _, tc := range storeCases() {
		t.Run(tc.name, func(t *testing.T) {
			s, ref, files := tc.run(t)
			checkAgainstRef(t, s, ref)
			checkSplits(t, s, ref, files)
		})
	}
}

// Fuzz scenario encoding: a header of a little-endian uint16 node count
// (up to maxFuzzNodes), spares and replication, then up to maxFuzzOps
// steps. A step is a kind byte and, for a file, a little-endian uint32
// size (up to maxFuzzBUs BUs modeled, maxFuzzDataBUs real); for
// ApplySkew, a sigma byte in tenths; for a membership change, a
// little-endian uint16 node.
const (
	maxFuzzNodes   = 320
	maxFuzzOps     = 12
	maxFuzzBUs     = 160
	maxFuzzDataBUs = 4
)

var fuzzPayload []byte // shared by every real file a fuzz input adds

func (tc storeCase) encode() []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(tc.nodes-1))
	b = append(b, byte(tc.spares), byte(tc.repl))
	for _, o := range tc.ops {
		switch {
		case o.sigma > 0:
			b = append(b, 2, byte(math.Round(o.sigma*10))-1)
		case o.toggle:
			b = binary.LittleEndian.AppendUint16(append(b, 3), uint16(o.node))
		case o.data != nil:
			b = binary.LittleEndian.AppendUint32(append(b, 1), uint32(len(o.data)-1))
		default:
			b = binary.LittleEndian.AppendUint32(append(b, 0), uint32(o.size-1))
		}
	}
	return b
}

func decodeStoreCase(b []byte) (storeCase, bool) {
	if len(b) < 4 {
		return storeCase{}, false
	}
	nodes := 1 + int(binary.LittleEndian.Uint16(b)%maxFuzzNodes)
	tc := storeCase{name: "fuzz", nodes: nodes, spares: int(b[2] % 8), repl: int(b[3] % 5)}
	b = b[4:]
	for len(b) > 0 && len(tc.ops) < maxFuzzOps {
		kind := b[0] % 4
		b = b[1:]
		var o storeOp
		switch {
		case kind == 2 && len(b) >= 1:
			o.sigma = float64(1+b[0]%30) / 10
			b = b[1:]
		case kind == 3 && len(b) >= 2:
			o = storeOp{toggle: true, node: cluster.NodeID(int(binary.LittleEndian.Uint16(b)) % (tc.nodes + tc.spares))}
			b = b[2:]
		case kind < 2 && len(b) >= 4:
			n := int64(binary.LittleEndian.Uint32(b))
			b = b[4:]
			if kind == 0 {
				o.size = 1 + n%(maxFuzzBUs*BUSize)
			} else {
				if fuzzPayload == nil {
					fuzzPayload = payload(maxFuzzDataBUs*BUSize, 0)
				}
				o.data = fuzzPayload[:1+n%(maxFuzzDataBUs*BUSize)]
			}
		default:
			return storeCase{}, false
		}
		tc.ops = append(tc.ops, o)
	}
	return tc, true
}

// FuzzStoreMatchesReference decodes bytes into a store scenario — fleet,
// spares, replication, and a sequence of modeled and real files, skew
// and membership changes — and checks the store against the per-BU
// reference on every query and every split at every legal split size.
func FuzzStoreMatchesReference(f *testing.F) {
	for _, tc := range storeCases() {
		f.Add(tc.encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		tc, ok := decodeStoreCase(b)
		if !ok {
			return
		}
		s, ref, files := tc.run(t)
		checkAgainstRef(t, s, ref)
		checkSplits(t, s, ref, files)
	})
}

// TestStoreCasesRoundTrip checks that the fuzz seed corpus encodes
// TestStoreIndicesMatchReference's cases exactly, fleets of more than
// rankHead members among them.
func TestStoreCasesRoundTrip(t *testing.T) {
	filtered := false
	for _, tc := range storeCases() {
		filtered = filtered || tc.nodes > rankHead
		got, ok := decodeStoreCase(tc.encode())
		if !ok || got.nodes != tc.nodes || got.spares != tc.spares || got.repl != tc.repl || len(got.ops) != len(tc.ops) {
			t.Fatalf("%s: decoded %+v", tc.name, got)
		}
		for i, o := range tc.ops {
			g := got.ops[i]
			if g.size != o.size || len(g.data) != len(o.data) || g.sigma != o.sigma || g.toggle != o.toggle || g.node != o.node {
				t.Fatalf("%s step %d: decoded %+v", tc.name, i, g)
			}
		}
	}
	if !filtered {
		t.Fatalf("no seed case has more than %d members", rankHead)
	}
}

// checkSplits compares every split of every file, at every split size
// that divides a placement group and at the first multiples of one,
// with the reference: BUs, byte size and replica-intersection hosts.
func checkSplits(t *testing.T, s *Store, ref *refStore, files []string) {
	t.Helper()
	for _, name := range files {
		f, _ := s.File(name)
		for _, size := range []int{1, 2, 4, 8, 16, 32, 48} {
			splits, err := s.Splits(name, size)
			if err != nil {
				t.Fatal(err)
			}
			var bus []BUID
			for i, sp := range splits {
				var bytes int64
				for _, id := range sp.BUs {
					bytes += ref.size[id]
				}
				if sp.File != name || sp.Index != i || len(sp.BUs) == 0 || len(sp.BUs) > size || sp.Size != bytes {
					t.Fatalf("file %s split %d of %d BUs: %d BUs of %d bytes, index %d; reference %d bytes", name, i, size, len(sp.BUs), sp.Size, sp.Index, bytes)
				}
				if want := ref.hosts(sp.BUs); !slices.Equal(sp.Hosts, want) {
					t.Fatalf("file %s split %d of %d BUs: hosts %v, reference %v", name, sp.Index, size, sp.Hosts, want)
				}
				bus = append(bus, sp.BUs...)
			}
			if !slices.Equal(bus, f.BUs) {
				t.Fatalf("file %s splits of %d BUs cover %v, want %v", name, size, bus, f.BUs)
			}
		}
	}
}

func checkAgainstRef(t *testing.T, s *Store, ref *refStore) {
	t.Helper()
	if s.next() != ref.next {
		t.Fatalf("store has %d BUs, reference %d", s.next(), ref.next)
	}
	perNode := map[cluster.NodeID]int{}
	for id := BUID(0); id < ref.next; id++ {
		for _, nid := range checkBU(t, s, ref, id) {
			perNode[nid]++
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

// TestManyFileStoreLookups builds a 40-file store, the shape of a
// multi-job workload's shared store, and checks every query against the
// reference at the first BU of every file and across its final group,
// short in most files: once while the file is the newest, when the
// lookup takes no search, and again once all 40 are stored.
func TestManyFileStoreLookups(t *testing.T) {
	c := cluster.Homogeneous(20)
	s := NewStore(c, 3, randutil.New(3))
	ref := newRefStore(c, s.Replication(), 3)
	var edges []BUID
	for i := 0; i < 40; i++ {
		// 1 to 79 BUs; a third of the files end in a short BU.
		size := int64(1+2*i)*BUSize - int64(i%3)*BUSize/3
		f, err := s.AddFile(fmt.Sprint(i), size)
		if err != nil {
			t.Fatal(err)
		}
		ref.addFile(size, nil)
		n := len(f.BUs)
		ids := append([]BUID{f.BUs[0]}, f.BUs[(n-1)/GroupBUs*GroupBUs:]...)
		for _, id := range ids {
			checkBU(t, s, ref, id)
		}
		if past := f.BUs[n-1] + 1; s.NodesFor(past) != nil || s.HasReplica(0, past) {
			t.Fatalf("file %d: BU %d past the last one has replicas %v", i, past, s.NodesFor(past))
		}
		edges = append(edges, ids...)
	}
	for _, id := range edges {
		checkBU(t, s, ref, id)
	}
	checkAgainstRef(t, s, ref)
}

// TestNodesForAppendCopies: a BU's replica set is capacity-capped, so an
// append to it copies instead of writing into the next group's set.
func TestNodesForAppendCopies(t *testing.T) {
	s := NewStore(cluster.Homogeneous(8), 3, randutil.New(1))
	f, _ := s.AddFile("a", 2*GroupBUs*BUSize)
	next := slices.Clone(s.NodesFor(f.BUs[GroupBUs]))
	if grown := append(s.NodesFor(f.BUs[GroupBUs-1]), 99); len(grown) != 4 {
		t.Fatalf("append gave %v", grown)
	}
	if got := s.NodesFor(f.BUs[GroupBUs]); !slices.Equal(got, next) {
		t.Fatalf("next group's replicas %v after an append to the previous group's, want %v", got, next)
	}
}

// checkBU compares every query about one BU with the reference and
// returns its replicas.
func checkBU(t *testing.T, s *Store, ref *refStore, id BUID) []cluster.NodeID {
	t.Helper()
	reps := s.NodesFor(id)
	if !slices.Equal(reps, ref.blockToNode[id]) {
		t.Fatalf("BU %d replicas %v, reference %v", id, reps, ref.blockToNode[id])
	}
	if want := min(s.Replication(), ref.online[id]); len(reps) != want || cap(reps) != want {
		t.Fatalf("BU %d has %d replicas (cap %d), want %d", id, len(reps), cap(reps), want)
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
	}
	if got, want := s.Size(id), ref.size[id]; got != want {
		t.Fatalf("Size(%d) = %d, reference %d", id, got, want)
	}
	if got, want := s.Weight(id), ref.weight(id); got != want {
		t.Fatalf("Weight(%d) = %v, reference %v", id, got, want)
	}
	if got, want := s.Content(id), ref.content[id]; (got == nil) != (want == nil) || !bytes.Equal(got, want) {
		t.Fatalf("Content(%d) has %d bytes, reference %d", id, len(got), len(want))
	}
	return reps
}

// TestAddFileAllocs pins that placement keeps no per-BU metadata but
// File.BUs: a file allocates as often whatever its size, and its bytes
// grow by at most File.BUs' 8 B per BU plus one replica set per
// placement group. The sources are built outside the measured runs with
// their registers already allocated (drawn past the lazy prefix, then
// reseeded), so a large file's draws do not count the register against
// placement.
func TestAddFileAllocs(t *testing.T) {
	c := cluster.Homogeneous(64)
	const runs, repl = 20, 3
	// measure returns the allocations and bytes of one AddFile of the
	// given BU count into a fresh store, after one warm-up run.
	measure := func(bus int64) (allocs, bytes uint64) {
		srcs := make([]*randutil.Source, runs+1)
		for i := range srcs {
			srcs[i] = randutil.New(1)
			srcs[i].Int63s(make([]int64, 1000))
			srcs[i].Rand.Seed(1)
		}
		add := func(src *randutil.Source) {
			s := NewStore(c, repl, src)
			if _, err := s.AddFile("f", bus*BUSize); err != nil {
				t.Fatal(err)
			}
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		add(srcs[runs])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, src := range srcs[:runs] {
			add(src)
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	buBytes := uint64(unsafe.Sizeof(BUID(0)))
	setBytes := repl * uint64(unsafe.Sizeof(cluster.NodeID(0)))
	oneAllocs, oneBytes := measure(1)
	for _, groups := range []uint64{1, 2, 64} {
		bus := groups * GroupBUs
		allocs, bytes := measure(int64(bus))
		t.Logf("%d-group file: %d allocs, %d B (1-BU file: %d allocs, %d B)", groups, allocs, bytes, oneAllocs, oneBytes)
		if allocs != oneAllocs {
			t.Errorf("%d-group file allocates %d times, a 1-BU file %d; want equal", groups, allocs, oneAllocs)
		}
		if max := oneBytes + (bus-1)*buBytes + (groups-1)*setBytes; bytes > max {
			t.Errorf("%d-group file allocates %d B, want ≤ %d (1-BU file %d B, %d B per further BU, %d B per further group)",
				groups, bytes, max, oneBytes, buBytes, setBytes)
		}
	}
}
