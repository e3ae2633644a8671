package experiments

import (
	"fmt"
	"sort"

	"flexmap/internal/cluster"
	"flexmap/internal/puma"
)

// TableI renders the heterogeneous physical cluster's hardware
// configuration (paper Table I).
func TableI() string { return tableI().Render() }

// TableII renders the PUMA benchmark configuration (paper Table II).
func TableII() string { return tableII().Render() }

// tableI tabulates Table I from the live profile, including the
// calibrated relative speeds and container slots this reproduction
// assigns to each machine class.
func tableI() *Table {
	c := cluster.Physical12()
	type class struct {
		count int
		speed float64
		slots int
	}
	classes := map[string]*class{}
	for _, n := range c.Nodes {
		cl := classes[n.Class]
		if cl == nil {
			cl = &class{}
			classes[n.Class] = cl
		}
		cl.count++
		cl.speed = n.BaseSpeed
		cl.slots = n.Slots
	}
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)

	panel := Panel{Columns: []string{"Machine model", "Number", "Rel. speed", "Container slots"}}
	for _, name := range names {
		cl := classes[name]
		panel.Rows = append(panel.Rows, []Cell{label(name),
			num("%.0f", float64(cl.count)), num("%.1fx", cl.speed), num("%.0f", float64(cl.slots))})
	}
	return &Table{Title: "Table I — heterogeneous physical cluster (12 nodes)", Panels: []Panel{panel}}
}

// tableII tabulates Table II plus the calibrated cost profile this
// reproduction uses for each benchmark.
func tableII() *Table {
	panel := Panel{Columns: []string{"Benchmark", "Input (S/L)", "Data", "MapCost", "Shuffle", "ReduceCost", "Map-heavy"}}
	for _, bench := range puma.All {
		p, err := puma.GetProfile(bench)
		if err != nil {
			continue
		}
		panel.Rows = append(panel.Rows, []Cell{
			label(fmt.Sprintf("%s (%s)", bench, bench.Short())),
			label(fmt.Sprintf("%dGB / %dGB", p.SmallGB, p.LargeGB)),
			label(p.Dataset),
			num("%.2f", p.MapCost),
			num("%.2f", p.ShuffleRatio),
			num("%.2f", p.ReduceCost),
			label(fmt.Sprintf("%v", p.MapHeavy)),
		})
	}
	return &Table{Title: "Table II — PUMA benchmark details (small/large inputs)", Panels: []Panel{panel}}
}
