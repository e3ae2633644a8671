// Elastictrace: watch FlexMap's dynamic map sizing at work (the paper's
// Fig. 7). Runs histogram-ratings on the physical cluster with the event
// trace collected and prints every sizing decision on the fastest and
// slowest node: the size unit's vertical growth, the horizontal speed
// multiplier, the requested size and the BUs the task bound.
//
//	go run ./examples/elastictrace
package main

import (
	"fmt"
	"log"

	"flexmap"
)

func main() {
	factory := flexmap.ClusterPhysical12
	clus, _ := factory()
	spec, err := flexmap.PUMASpec(flexmap.HistogramRatings, clus.TotalSlots())
	if err != nil {
		log.Fatal(err)
	}
	sc := flexmap.Scenario{
		Name:      "elastictrace",
		Cluster:   factory,
		Seed:      42,
		InputSize: 10 * flexmap.GB, // Table II small input for HR
		Trace:     flexmap.TraceOptions{Collect: true},
	}
	res, err := flexmap.Run(sc, spec, flexmap.Engine{Kind: flexmap.FlexMap})
	if err != nil {
		log.Fatal(err)
	}

	// Identify the fastest and slowest workers (the paper used a probe).
	fast, slow := res.Cluster.Nodes[0], res.Cluster.Nodes[0]
	for _, n := range res.Cluster.Nodes {
		if n.Speed() > fast.Speed() {
			fast = n
		}
		if n.Speed() < slow.Speed() {
			slow = n
		}
	}
	fmt.Printf("histogram-ratings under FlexMap — JCT %.1fs\n", float64(res.JCT()))
	fmt.Printf("fastest node: %s (%.1fx)   slowest node: %s (%.1fx)\n\n",
		fast.Name, fast.Speed(), slow.Name, slow.Speed())

	// Each sizing decision is a sizer event (rel_speed, size_unit, the
	// requested size) followed on the same node by the task-bind event
	// holding the task and the BUs it bound.
	var decisions []flexmap.TraceEvent
	for _, e := range res.Trace.Events() {
		if k := e.Kind.String(); (k == "sizer" || k == "task-bind") && (e.Node == fast.ID || e.Node == slow.ID) {
			decisions = append(decisions, e)
		}
	}
	fmt.Printf("sizing decisions on node %d (fastest) and node %d (slowest):\n", fast.ID, slow.ID)
	fmt.Print(flexmap.RenderTimeline(decisions))
	fmt.Println("\nThe size unit doubles while productivity < 0.8, then grows one BU per")
	fmt.Println("wave (vertical scaling); the dispatched size is the unit times the")
	fmt.Println("node's relative speed (horizontal scaling), shrinking again only in")
	fmt.Println("the capacity-proportional endgame.")
}
