package dfs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/randutil"
)

// refPick is placement's per-node scan before tie draws were batched:
// every online node draws its tie through rand.Rand.Int63 as the scan
// reaches it, and the scan keeps the `repl` best (load, tie) pairs.
func refPick(c *cluster.Cluster, load []int, repl int, rng *rand.Rand) []cluster.NodeID {
	type cand struct {
		id   cluster.NodeID
		load int
		tie  int64
	}
	best := make([]cand, 0, repl)
	for _, n := range c.Nodes {
		if n.Offline() {
			continue
		}
		c := cand{n.ID, load[n.ID], rng.Int63()}
		if len(best) == repl {
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
	out := make([]cluster.NodeID, len(best))
	for i := range out {
		out[i] = best[i].id
	}
	return out
}

// TestPlacementMatchesReference places several random files on random
// fleets (1–300 nodes, offline spares, spares joined and members
// released between files, replication 1–4) and requires every BU's
// replica set to equal refPick's over math/rand itself. The placement
// stream's next draw must match too, so exactly groups × members ties
// were drawn, in member order. After a file of more than rankHead
// members, the store's minimum-load count must match a recount, so that
// no later group filters on a stale minimum.
func TestPlacementMatchesReference(t *testing.T) {
	gen := rand.New(rand.NewSource(7))
	for tc := 0; tc < 150; tc++ {
		c := cluster.Homogeneous(1 + gen.Intn(300))
		spares := c.AddSpares(gen.Intn(12), cluster.NodeSpec{})
		for _, id := range spares {
			if gen.Intn(3) == 0 {
				c.JoinNode(id, 0)
			}
		}
		seed := gen.Int63() - gen.Int63()
		s := NewStore(c, 1+gen.Intn(4), randutil.New(seed))
		ref := rand.New(rand.NewSource(seed))
		load := make([]int, c.Size())
		for f := 0; f < 1+gen.Intn(4); f++ {
			if len(spares) > 0 && gen.Intn(2) == 0 {
				c.JoinNode(spares[gen.Intn(len(spares))], 0)
			}
			if gen.Intn(3) == 0 {
				c.ReleaseNode(cluster.NodeID(gen.Intn(c.Size())), 0)
			}
			name := fmt.Sprint(f)
			file, err := s.AddFile(name, 1+gen.Int63n(40*GroupBUs*BUSize))
			if err != nil {
				t.Fatal(err)
			}
			var want []cluster.NodeID
			for i, id := range file.BUs {
				if i%GroupBUs == 0 {
					want = refPick(c, load, s.Replication(), ref)
				}
				if got := s.NodesFor(id); !slices.Equal(got, want) {
					t.Fatalf("case %d file %d BU %d: replicas %v, reference %v", tc, f, i, got, want)
				}
				for _, nid := range want {
					load[nid]++
				}
			}
			if len(s.members) > rankHead {
				minLoad, minCount := math.MaxInt, 0
				for _, id := range s.members {
					if l := s.nodeLoad[id]; l < minLoad {
						minLoad, minCount = l, 1
					} else if l == minLoad {
						minCount++
					}
				}
				if s.minLoad != minLoad || s.minCount != minCount {
					t.Fatalf("case %d file %d: minimum load %d on %d members, recount %d on %d", tc, f, s.minLoad, s.minCount, minLoad, minCount)
				}
			}
		}
		if got, want := s.rng.Int63(), ref.Int63(); got != want {
			t.Fatalf("case %d: next placement draw %d, reference %d: tie draws were skipped or added", tc, got, want)
		}
	}
}
