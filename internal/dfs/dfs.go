// Package dfs implements an HDFS-like distributed block store at the
// granularity FlexMap needs: files are sequences of 8 MB block units
// (BUs), each replicated on R distinct nodes. Consecutive BUs are placed
// in co-located groups so that classic 64 MB / 128 MB Hadoop splits remain
// node-local, while FlexMap can still compose splits BU by BU.
//
// The package also provides the NodeToBlock / BlockToNode locality indices
// the paper's Late Task Binding maintains, as a Tracker that hands out
// unprocessed BUs with mutual exclusion.
package dfs

import (
	"fmt"
	"math"
	"slices"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
)

// BUSize is the size of one block unit: 8 MB, the paper's basic unit of
// task-size change.
const BUSize int64 = 8 * 1024 * 1024

// DefaultReplication is HDFS's default replication factor.
const DefaultReplication = 3

// GroupBUs is the number of consecutive BUs placed on the same replica
// set (16 BUs = 128 MB, so both 64 MB and 128 MB splits are co-located).
const GroupBUs = 16

// BUID identifies one block unit globally within a Store.
type BUID int

// BU is one stored block unit.
type BU struct {
	ID    BUID
	File  string
	Index int   // position within the file
	Size  int64 // ≤ BUSize; the final BU of a file may be short
}

// File is a stored file: an ordered list of BUs.
type File struct {
	Name string
	Size int64
	BUs  []BUID
}

// Store is the cluster-wide block store.
type Store struct {
	cluster     *cluster.Cluster
	replication int
	rng         *randutil.Source

	files  map[string]*File
	blocks []BU // indexed by BUID

	// blockToNode is indexed by BUID. Every BU of one placement group
	// shares the group's replica slice, so it is read-only.
	blockToNode [][]cluster.NodeID
	nodeLoad    []int // BUs stored per node, by dense NodeID, for balancing

	// content and weights are indexed by BUID and stay nil until used. An
	// ID past their end has no payload and weight 1.0.
	content [][]byte  // optional real payloads for live execution
	weights []float64 // optional per-BU processing-cost weights (data skew)
}

// NewStore creates an empty store over the given cluster. replication 0
// means DefaultReplication; it is capped at the cluster's member count
// (offline elastic spares store no data until they join).
func NewStore(c *cluster.Cluster, replication int, rng *randutil.Source) *Store {
	if replication <= 0 {
		replication = DefaultReplication
	}
	if live := c.LiveSize(); replication > live {
		replication = live
	}
	s := &Store{
		cluster:     c,
		replication: replication,
		rng:         rng,
		files:       make(map[string]*File),
		nodeLoad:    make([]int, c.Size()),
	}
	return s
}

// Replication returns the effective replication factor.
func (s *Store) Replication() int { return s.replication }

// Cluster returns the cluster this store spans.
func (s *Store) Cluster() *cluster.Cluster { return s.cluster }

// AddFile stores a modeled file of the given size: BU metadata and
// placement are created, but no payload bytes.
func (s *Store) AddFile(name string, size int64) (*File, error) {
	if size <= 0 {
		return nil, fmt.Errorf("dfs: file %q has non-positive size %d", name, size)
	}
	return s.addFile(name, size, nil)
}

// AddFileWithData stores a real file: the payload is split into BUs and
// retained so map functions can process actual bytes.
func (s *Store) AddFileWithData(name string, data []byte) (*File, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("dfs: file %q is empty", name)
	}
	return s.addFile(name, int64(len(data)), data)
}

func (s *Store) addFile(name string, size int64, data []byte) (*File, error) {
	if _, ok := s.files[name]; ok {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	numBUs := int((size + BUSize - 1) / BUSize)
	f := &File{Name: name, Size: size, BUs: make([]BUID, 0, numBUs)}
	s.blocks = slices.Grow(s.blocks, numBUs)
	s.blockToNode = slices.Grow(s.blockToNode, numBUs)
	if data != nil {
		// Modeled files added earlier read as nil payloads.
		s.content = append(s.content, make([][]byte, len(s.blocks)-len(s.content))...)
	}

	var group []cluster.NodeID
	for i := 0; i < numBUs; i++ {
		if i%GroupBUs == 0 {
			group = s.pickReplicaNodes()
		}
		buSize := BUSize
		if rem := size - int64(i)*BUSize; rem < buSize {
			buSize = rem
		}
		id := BUID(len(s.blocks))
		s.blocks = append(s.blocks, BU{ID: id, File: name, Index: i, Size: buSize})
		f.BUs = append(f.BUs, id)
		s.blockToNode = append(s.blockToNode, group)
		for _, nid := range group {
			s.nodeLoad[nid]++
		}
		if data != nil {
			lo := int64(i) * BUSize
			s.content = append(s.content, data[lo:lo+buSize])
		}
	}
	s.files[name] = f
	return f, nil
}

// pickReplicaNodes chooses `replication` distinct nodes, preferring nodes
// storing the fewest BUs (ties broken pseudo-randomly) so placement stays
// balanced, as HDFS's balancer would keep it.
func (s *Store) pickReplicaNodes() []cluster.NodeID {
	type cand struct {
		id   cluster.NodeID
		load int
		tie  int64
	}
	// One scan keeping the `replication` best (load, tie) pairs — a full
	// sort of the fleet per BU is O(n log n) and dominated 10k-node setup.
	// Every member node still draws a tie value, so the random stream (and
	// with it every downstream placement) matches the old sorted version.
	// Offline spares neither draw nor qualify: base-fleet placement is
	// identical whether or not a run provisions spares, and a spare that
	// has joined by the time a file is added receives replicas normally.
	best := make([]cand, 0, s.replication)
	for _, n := range s.cluster.Nodes {
		if n.Offline() {
			continue
		}
		c := cand{n.ID, s.nodeLoad[n.ID], s.rng.Int63()}
		if len(best) == s.replication {
			w := best[len(best)-1]
			if c.load > w.load || (c.load == w.load && c.tie >= w.tie) {
				continue
			}
			best = best[:len(best)-1]
		}
		i := len(best)
		for i > 0 && (c.load < best[i-1].load || (c.load == best[i-1].load && c.tie < best[i-1].tie)) {
			i--
		}
		best = append(best, cand{})
		copy(best[i+1:], best[i:])
		best[i] = c
	}
	// Fewer members than the replication factor (elastic scale-in below
	// the store's initial member count) degrades gracefully to the
	// members available, like HDFS under-replication.
	out := make([]cluster.NodeID, len(best))
	for i := range out {
		out[i] = best[i].id
	}
	return out
}

// File returns a stored file by name.
func (s *Store) File(name string) (*File, bool) {
	f, ok := s.files[name]
	return f, ok
}

// Block returns BU metadata. Unknown IDs panic — BUIDs are dense indices
// issued by this store.
func (s *Store) Block(id BUID) BU {
	if int(id) < 0 || int(id) >= len(s.blocks) {
		panic(fmt.Sprintf("dfs: unknown BU %d", id))
	}
	return s.blocks[id]
}

// Content returns the real payload of a BU, or nil for modeled files.
func (s *Store) Content(id BUID) []byte {
	if id < 0 || int(id) >= len(s.content) {
		return nil
	}
	return s.content[id]
}

// Weight returns the BU's processing-cost weight (1.0 = uniform data).
func (s *Store) Weight(id BUID) float64 {
	if id < 0 || int(id) >= len(s.weights) {
		return 1.0
	}
	return s.weights[id]
}

// ApplySkew assigns every stored BU a lognormal processing-cost weight
// with the given sigma, normalized to mean 1 so total work is unchanged —
// some records are simply much more expensive to process than others
// (the computational skew SkewTune targets). Call after adding files:
// BUs added later weigh 1.0.
func (s *Store) ApplySkew(rng *randutil.Source, sigma float64) {
	if sigma <= 0 {
		return
	}
	s.weights = make([]float64, len(s.blocks))
	for i := range s.weights {
		s.weights[i] = math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
	}
}

// MeanWeight returns the mean cost weight over a set of BUs.
func (s *Store) MeanWeight(bus []BUID) float64 {
	if len(bus) == 0 {
		return 1.0
	}
	sum := 0.0
	for _, id := range bus {
		sum += s.Weight(id)
	}
	return sum / float64(len(bus))
}

// NodesFor returns the nodes holding replicas of a BU. The slice is
// shared with the BU's placement group: callers must not modify it.
func (s *Store) NodesFor(id BUID) []cluster.NodeID {
	if id < 0 || int(id) >= len(s.blockToNode) {
		return nil
	}
	return s.blockToNode[id]
}

// HasReplica reports whether node holds a replica of the BU. It scans the
// BU's at most R replicas.
func (s *Store) HasReplica(node cluster.NodeID, id BUID) bool {
	return slices.Contains(s.NodesFor(id), node)
}

// Split is a contiguous run of BUs handed to one classic map task.
type Split struct {
	File  string
	Index int // split index within the file
	BUs   []BUID
	Size  int64
	// Hosts are nodes holding all BUs of the split (replica intersection).
	Hosts []cluster.NodeID
}

// Splits partitions a file into classic fixed-size splits of sizeBUs block
// units each (8 → 64 MB splits, 16 → 128 MB). sizeBUs must be positive and
// must divide GroupBUs or be a multiple of it so splits never straddle
// placement groups with differing replica sets.
func (s *Store) Splits(name string, sizeBUs int) ([]Split, error) {
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", name)
	}
	if sizeBUs <= 0 {
		return nil, fmt.Errorf("dfs: split size %d BUs must be positive", sizeBUs)
	}
	if sizeBUs < GroupBUs && GroupBUs%sizeBUs != 0 {
		return nil, fmt.Errorf("dfs: split size %d BUs does not divide placement group %d", sizeBUs, GroupBUs)
	}
	if sizeBUs > GroupBUs && sizeBUs%GroupBUs != 0 {
		return nil, fmt.Errorf("dfs: split size %d BUs is not a multiple of placement group %d", sizeBUs, GroupBUs)
	}
	var out []Split
	for lo := 0; lo < len(f.BUs); lo += sizeBUs {
		hi := lo + sizeBUs
		if hi > len(f.BUs) {
			hi = len(f.BUs)
		}
		sp := Split{File: name, Index: len(out), BUs: f.BUs[lo:hi]}
		for _, id := range sp.BUs {
			sp.Size += s.blocks[id].Size
		}
		sp.Hosts = s.replicaIntersection(sp.BUs)
		out = append(out, sp)
	}
	return out, nil
}

// replicaIntersection returns the nodes holding every BU of bus, in
// ascending NodeID order: the first BU's replicas that every other BU
// also has.
func (s *Store) replicaIntersection(bus []BUID) []cluster.NodeID {
	if len(bus) == 0 {
		return nil
	}
	var hosts []cluster.NodeID
	for _, nid := range s.blockToNode[bus[0]] {
		all := true
		for _, id := range bus[1:] {
			if !s.HasReplica(nid, id) {
				all = false
				break
			}
		}
		if all {
			hosts = append(hosts, nid)
		}
	}
	slices.Sort(hosts)
	return hosts
}
