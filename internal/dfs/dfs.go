// Package dfs implements an HDFS-like distributed block store at the
// granularity FlexMap needs: files are sequences of 8 MB block units
// (BUs), each replicated on R distinct nodes. Consecutive BUs are placed
// in co-located groups so that classic 64 MB / 128 MB Hadoop splits remain
// node-local, while FlexMap can still compose splits BU by BU.
//
// A BU is the unit of binding, but not of metadata: the store keeps one
// record per file and one replica set per 16-BU placement group, and
// derives a BU's size and replicas from its file's record.
//
// The package also provides the NodeToBlock / BlockToNode locality indices
// the paper's Late Task Binding maintains, as a Tracker that hands out
// unprocessed BUs with mutual exclusion.
package dfs

import (
	"fmt"
	"math"
	"math/bits"
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

// maxFileSize is the largest storable file size: the largest whole
// number of BUs whose bytes fit in an int64, so a file's BU count and
// every BU offset are computed without overflow.
const maxFileSize = math.MaxInt64 - BUSize + 1

// BUID identifies one block unit globally within a Store.
type BUID int

// File is a stored file: an ordered list of BUs.
type File struct {
	Name string
	Size int64
	BUs  []BUID
}

// placement is one stored file's BUs and replica sets. A file's BUIDs
// are contiguous, base to base+n-1, and placement group g's replica set
// is replicas[g*width:(g+1)*width]. Every group of a file has the same
// width: membership cannot change while a file is placed, but the width
// falls below the replication factor if fewer members are online.
type placement struct {
	base     BUID
	n        int   // BUs in the file
	size     int64 // file bytes
	width    int
	replicas []cluster.NodeID
}

// group returns group g's replica set, capacity-capped so that an append
// to it cannot write into the next group's set.
func (p *placement) group(g int) []cluster.NodeID {
	lo := g * p.width
	return p.replicas[lo : lo+p.width : lo+p.width]
}

// replicasOf returns the replica set of the file's BU id.
func (p *placement) replicasOf(id BUID) []cluster.NodeID {
	return p.group(int(id-p.base) / GroupBUs)
}

// Store is the cluster-wide block store.
type Store struct {
	cluster     *cluster.Cluster
	replication int
	rng         *randutil.Source

	files map[string]*File
	// placed holds one placement per file, in the order the files were
	// added and so by ascending base BUID. No per-BU record is kept: a
	// BU's size and replicas follow from its file's placement and its
	// offset in the file.
	placed   []placement
	nodeLoad []int // BUs stored per node, by dense NodeID, for balancing

	// members and best are placement scratch, reused across files: the
	// online members of the file being placed and the best candidates of
	// the group being placed. ties, draws and ids hold the tie draws a
	// group ranks at a time: up to rankHead draws in member order, or the
	// draws a filtered call reports and the members that drew them.
	members []cluster.NodeID
	best    []replicaCand
	ties    [rankHead]int64
	draws   [rankHead]randutil.Draw
	ids     [rankHead]cluster.NodeID
	// minLoad is the least load among members and minCount how many
	// members hold it, kept only while a file with more than rankHead
	// members is placed, the only placement that reads them. Placement
	// stays exact while minLoad is at most the true least load; the count
	// says when it has fallen below and must be recounted.
	minLoad, minCount int

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
	if size > maxFileSize {
		return nil, fmt.Errorf("dfs: file %q size %d exceeds the largest storable size %d", name, size, maxFileSize)
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
	base := s.next()
	numBUs := int((size + BUSize - 1) / BUSize)
	f := &File{Name: name, Size: size, BUs: make([]BUID, numBUs)}
	for i := range f.BUs {
		f.BUs[i] = base + BUID(i)
	}
	if data != nil {
		// Modeled files added earlier read as nil payloads.
		s.content = append(s.content, make([][]byte, int(base)-len(s.content))...)
		for lo := int64(0); lo < size; lo += BUSize {
			s.content = append(s.content, data[lo:min(lo+BUSize, size)])
		}
	}

	// Membership cannot change while a file is placed: list it once.
	members := slices.Grow(s.members[:0], len(s.cluster.Nodes))
	for _, n := range s.cluster.Nodes {
		if !n.Offline() {
			members = append(members, n.ID)
		}
	}
	s.members = members

	// Each group's BUs count toward its nodes' load before the next group
	// is placed. The groups' replica sets are cut from one array.
	groups := (numBUs + GroupBUs - 1) / GroupBUs
	p := placement{base: base, n: numBUs, size: size, width: min(s.replication, len(members))}
	p.replicas = make([]cluster.NodeID, 0, groups*p.width)
	track := len(members) > rankHead
	if track {
		s.recountMin()
	}
	for g := 0; g < groups; g++ {
		n := len(p.replicas)
		p.replicas = s.appendReplicaNodes(p.replicas, members)
		bus := min(GroupBUs, numBUs-g*GroupBUs)
		for _, nid := range p.replicas[n:] {
			if track && s.nodeLoad[nid] == s.minLoad {
				s.minCount--
			}
			s.nodeLoad[nid] += bus
		}
		if track && s.minCount == 0 {
			s.recountMin()
		}
	}
	s.placed = append(s.placed, p)
	s.files[name] = f
	return f, nil
}

// recountMin sets minLoad and minCount over the members.
func (s *Store) recountMin() {
	least, count := math.MaxInt, 0
	for _, id := range s.members {
		switch l := s.nodeLoad[id]; {
		case l < least:
			least, count = l, 1
		case l == least:
			count++
		}
	}
	s.minLoad, s.minCount = least, count
}

// next returns the BUID the next stored BU receives.
func (s *Store) next() BUID {
	if len(s.placed) == 0 {
		return 0
	}
	p := &s.placed[len(s.placed)-1]
	return p.base + BUID(p.n)
}

// placementOf returns the placement of the file holding BU id, or nil if
// this store issued no such ID. The newest file answers in O(1), with no
// search; an older one is found by binary search over the files' bases.
func (s *Store) placementOf(id BUID) *placement {
	hi := len(s.placed) - 1
	if hi < 0 || id < 0 {
		return nil
	}
	i := hi
	if id < s.placed[hi].base {
		// The first file's base is 0. Keep placed[i].base ≤ id <
		// placed[hi].base until i is the last file starting at or
		// before id.
		i = 0
		for hi-i > 1 {
			m := int(uint(i+hi) >> 1)
			if s.placed[m].base <= id {
				i = m
			} else {
				hi = m
			}
		}
	}
	p := &s.placed[i]
	if int(id-p.base) >= p.n {
		return nil
	}
	return p
}

// replicaCand is a member node in the running for a group's replicas.
type replicaCand struct {
	id   cluster.NodeID
	load int
	tie  int64
}

// rankHead is how many tie draws a group ranks at a time while every
// draw can win: all of a file with at most this many members, which
// therefore keeps no minimum-load count.
const rankHead = 64

// appendReplicaNodes chooses `replication` distinct nodes among members,
// preferring nodes storing the fewest BUs (ties broken pseudo-randomly) so
// placement stays balanced, as HDFS's balancer would keep it, and appends
// them to dst.
func (s *Store) appendReplicaNodes(dst, members []cluster.NodeID) []cluster.NodeID {
	// One scan keeping the `replication` best (load, tie) pairs — a full
	// sort of the fleet per BU is O(n log n) and dominated 10k-node setup.
	// Every member node still draws a tie value, in member order, so the
	// random stream (and with it every downstream placement) matches the
	// old sorted version. Offline spares are not members: they neither
	// draw nor qualify, so base-fleet placement is identical whether or
	// not a run provisions spares, and a spare that has joined by the time
	// a file is added receives replicas normally.
	s.best = slices.Grow(s.best[:0], s.replication)
	for j := 0; j < len(members); {
		var ids []cluster.NodeID
		var ties []int64
		if r := len(s.best); r == s.replication && s.best[r-1].load == s.minLoad {
			// The R-th best holds the members' least load, so only a
			// member with a smaller tie can beat it: draw on, ranking
			// only those. A full buffer stops the draws, and the next
			// call's bound is the tightened tie.
			draws, taken := s.rng.Int63sBelow(s.draws[:0], len(members)-j, s.best[r-1].tie)
			for k, d := range draws {
				s.ids[k], s.ties[k] = members[j+d.Off], d.Val
			}
			ids, ties = s.ids[:len(draws)], s.ties[:len(draws)]
			j += taken
		} else {
			n := min(len(members)-j, rankHead)
			ids, ties = members[j:j+n], s.ties[:n]
			s.rng.Int63s(ties)
			j += n
		}
		s.rank(ids, ties)
	}
	// Fewer members than the replication factor (elastic scale-in below
	// the store's initial member count) degrades gracefully to the
	// members available, like HDFS under-replication.
	for _, c := range s.best {
		dst = append(dst, c.id)
	}
	return dst
}

// rank enters the members ids, whose tie draws are ties, into s.best,
// the group's `replication` best candidates in (load, tie) order. It is
// a function of its own so that its loop, which makes no call, keeps the
// ranking state in registers.
func (s *Store) rank(ids []cluster.NodeID, ties []int64) {
	load, best := s.nodeLoad, s.best
	// (wLoad, wTie) is the R-th best pair so far; until R members are
	// seen it ranks below every member. A member qualifies if its pair
	// is smaller: the borrow out of the 128-bit difference load:tie −
	// wLoad:wTie, which does not branch on which nodes already hold data.
	wLoad, wTie := math.MaxInt, int64(0)
	if len(best) == s.replication {
		wLoad, wTie = best[len(best)-1].load, best[len(best)-1].tie
	}
	for j, id := range ids {
		c := replicaCand{id, load[id], ties[j]}
		_, borrow := bits.Sub64(uint64(c.tie), uint64(wTie), 0)
		if _, borrow = bits.Sub64(uint64(c.load), uint64(wLoad), borrow); borrow == 0 {
			continue
		}
		if len(best) == s.replication {
			best = best[:len(best)-1]
		}
		i := len(best)
		best = append(best, c)
		for i > 0 && (c.load < best[i-1].load || (c.load == best[i-1].load && c.tie < best[i-1].tie)) {
			best[i] = best[i-1]
			i--
		}
		best[i] = c
		if len(best) == s.replication {
			wLoad, wTie = best[len(best)-1].load, best[len(best)-1].tie
		}
	}
	s.best = best
}

// File returns a stored file by name.
func (s *Store) File(name string) (*File, bool) {
	f, ok := s.files[name]
	return f, ok
}

// Size returns a BU's size in bytes: BUSize, or less for the short final
// BU of a file. Unknown IDs panic — BUIDs are dense indices issued by
// this store.
func (s *Store) Size(id BUID) int64 {
	p := s.placementOf(id)
	if p == nil {
		panic(fmt.Sprintf("dfs: unknown BU %d", id))
	}
	return min(p.size-int64(id-p.base)*BUSize, BUSize)
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
	s.weights = make([]float64, s.next())
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

// NodesFor returns the nodes holding replicas of a BU: its placement
// group's set, shared by the group's BUs, so callers must not modify it.
// An append to it copies rather than writes into the next group's set.
func (s *Store) NodesFor(id BUID) []cluster.NodeID {
	p := s.placementOf(id)
	if p == nil {
		return nil
	}
	return p.replicasOf(id)
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
	// Hosts are nodes holding all BUs of the split (replica intersection),
	// in ascending order. Splits of one placement group share the slice,
	// so it is read-only.
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
	p := s.placementOf(f.BUs[0])
	out := make([]Split, 0, (p.n+sizeBUs-1)/sizeBUs)
	// The host sets are cut from one array; each is at most a replica set.
	all := make([]cluster.NodeID, 0, cap(out)*p.width)
	var hosts []cluster.NodeID
	for lo := 0; lo < p.n; lo += sizeBUs {
		hi := min(lo+sizeBUs, p.n)
		out = append(out, Split{
			File:  name,
			Index: len(out),
			BUs:   f.BUs[lo:hi],
			Size:  min(int64(hi)*BUSize, p.size) - int64(lo)*BUSize,
		})
		// A split no larger than a placement group lies inside one, so
		// the group's splits share its hosts.
		if sizeBUs > GroupBUs || lo%GroupBUs == 0 {
			n := len(all)
			all = p.appendHosts(all, lo/GroupBUs, (hi-1)/GroupBUs)
			hosts = all[n:len(all):len(all)]
		}
		out[len(out)-1].Hosts = hosts
	}
	return out, nil
}

// appendHosts appends to dst the nodes holding a replica in every group
// from first to last, in ascending NodeID order: the first group's
// replicas that every later group also has.
func (p *placement) appendHosts(dst []cluster.NodeID, first, last int) []cluster.NodeID {
	n := len(dst)
	for _, nid := range p.group(first) {
		all := true
		for g := first + 1; all && g <= last; g++ {
			all = slices.Contains(p.group(g), nid)
		}
		if all {
			dst = append(dst, nid)
		}
	}
	slices.Sort(dst[n:])
	return dst
}
