package main

import (
	"testing"

	"flexmap/internal/runner"
)

var benchEngines = []runner.EngineKind{runner.Hadoop, runner.FlexMap}

// TestEventsFloorCoversFleetCellsOnly pins which cells the
// -min-xl-events-per-sec floor gates: every XL and net cell, and no
// classic grid or workload cell.
func TestEventsFloorCoversFleetCellsOnly(t *testing.T) {
	const floor = 1000
	slow := func(name string) []GridRun { return []GridRun{{Name: name, EventsPerS: floor / 2}} }
	for _, kind := range benchEngines {
		for _, name := range []string{xlCellName(2000, kind), netCellName(200, kind)} {
			if gateEventsFloor(slow(name), floor) == nil {
				t.Errorf("floor skipped slow fleet cell %s", name)
			}
			if err := gateEventsFloor([]GridRun{{Name: name, EventsPerS: floor}}, floor); err != nil {
				t.Errorf("floor rejected cell at the floor: %v", err)
			}
		}
		for _, name := range []string{
			gridCellName(10, kind, false, false),
			gridCellName(200, kind, true, true),
			"workload/n200/" + string(kind) + "/fair",
		} {
			if err := gateEventsFloor(slow(name), floor); err != nil {
				t.Errorf("floor gated non-fleet cell: %v", err)
			}
		}
	}
}

// TestFleetCellNamesDisjointFromGrid requires that no XL or net cell
// name equals a classic grid name at any size up to 10k nodes, so -check
// never compares cells of different kinds under one name.
func TestFleetCellNamesDisjointFromGrid(t *testing.T) {
	const maxNodes = 10000
	grid := map[string]bool{}
	for n := 1; n <= maxNodes; n++ {
		for _, kind := range benchEngines {
			for _, faults := range []bool{false, true} {
				for _, trace := range []bool{false, true} {
					grid[gridCellName(n, kind, faults, trace)] = true
				}
			}
		}
	}
	for n := 1; n <= maxNodes; n++ {
		for _, kind := range benchEngines {
			xl, net := xlCellName(n, kind), netCellName(n, kind)
			if grid[xl] || grid[net] || xl == net {
				t.Errorf("n=%d %s: fleet cell names %q / %q collide", n, kind, xl, net)
			}
		}
	}
}
