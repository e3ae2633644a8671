package engine

import (
	"flexmap/internal/cluster"
)

// GreedyReducePlacer is a traffic-aware reduce placement policy in the
// spirit of nethint's greedy reducer scheduler: partitions are placed one
// at a time on the node minimizing the projected shuffle transfer time of
// the traffic already committed — the load accumulated on the candidate
// rack's core downlink plus the candidate host's access link, each divided
// by its capacity. Under an oversubscribed topology this pulls reducers
// toward the racks already holding intermediate data and spreads the rest,
// trading the paper's compute-capacity bias for network proximity. With
// Driver.Net == nil it degrades to balancing host access links only
// (every node in one rack, an uncontended core).
func GreedyReducePlacer(d *Driver) []cluster.NodeID {
	R := int64(d.Spec.NumReducers)
	size := d.Cluster.Size()
	racks := 1
	rackOf := make([]int, size)
	if d.Net != nil {
		racks = d.Net.Racks()
		for i := range rackOf {
			rackOf[i] = d.Net.RackOf(cluster.NodeID(i))
		}
	}
	rackSum := make([]int64, racks)
	d.nodes.Each(func(id cluster.NodeID, n *jobNode) { rackSum[rackOf[id]] += n.inter })
	partBytes := d.totalInter / R

	// Per-partition shares depend only on the destination node, so the
	// intra-rack and cross-rack remote bytes are precomputed per node.
	intraShare := make([]float64, size)
	crossShare := make([]float64, size)
	for i := 0; i < size; i++ {
		intra := rackSum[rackOf[i]]/R - d.interOn(cluster.NodeID(i))/R
		cross := partBytes - rackSum[rackOf[i]]/R
		if intra < 0 {
			intra = 0
		}
		if cross < 0 {
			cross = 0
		}
		intraShare[i], crossShare[i] = float64(intra), float64(cross)
	}

	invHostBW := 1 / (d.Cluster.NetBW * float64(MB))
	rackBW := 0.0 // inverse-capacity form: 0 means an uncontended core
	if d.Net != nil {
		rackBW = 1 / d.Net.RackBW()
	}

	rackLoad := make([]float64, racks)
	nodeLoad := make([]float64, size)
	out := make([]cluster.NodeID, R)
	for p := range out {
		best := -1
		var bestCost float64
		for i := 0; i < size; i++ {
			remote := intraShare[i] + crossShare[i]
			cost := (rackLoad[rackOf[i]]+crossShare[i])*rackBW +
				(nodeLoad[i]+remote)*invHostBW
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		out[p] = cluster.NodeID(best)
		rackLoad[rackOf[best]] += crossShare[best]
		nodeLoad[best] += intraShare[best] + crossShare[best]
	}
	return out
}
