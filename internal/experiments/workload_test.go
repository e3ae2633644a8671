package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// wlCfg scales the workload figure down the way the other harness tests
// do: Scale 64 keeps each of the grid's 40-job workloads under a second.
func wlCfg() Config {
	return Config{Seed: 42, Scale: 64, Parallel: 0}
}

func TestWorkloadFigureStructure(t *testing.T) {
	loads := []float64{120, 360, 720}
	r, err := workloadFigure(wlCfg(), loads)
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(panel(t, r, "").Rows); rows != 3*2 {
		t.Fatalf("grid has %d rows, want 3 loads × 2 engines", rows)
	}
	for _, load := range loads {
		for _, eng := range workloadEngines() {
			row := fmt.Sprintf("%g/%s", load, eng)
			p50, p99 := value(t, r, "", row, "p50"), value(t, r, "", row, "p99")
			if p50 <= 0 || p99 < p50 {
				t.Errorf("load %g %s: latency percentiles out of order (p50=%g p99=%g)", load, eng, p50, p99)
			}
			if value(t, r, "", row, "goodput-MB/s") <= 0 {
				t.Errorf("load %g %s: no goodput", load, eng)
			}
			if util := value(t, r, "", row, "util"); util <= 0 || util > 1 {
				t.Errorf("load %g %s: utilization %g outside (0,1]", load, eng, util)
			}
			if value(t, r, "", row, "max-conc") < 1 {
				t.Errorf("load %g %s: no concurrency recorded", load, eng)
			}
		}
	}
	// Offered load must actually move the cluster: goodput at the top of
	// the grid is a multiple of goodput at the bottom (same 40 jobs
	// pushed through in a fraction of the span).
	for _, eng := range workloadEngines() {
		low := value(t, r, "", "120/"+eng.String(), "goodput-MB/s")
		high := value(t, r, "", "720/"+eng.String(), "goodput-MB/s")
		if high <= low {
			t.Errorf("%s: goodput did not grow with offered load (%g -> %g)", eng, low, high)
		}
	}
}

func TestWorkloadFigureRender(t *testing.T) {
	r, err := workloadFigure(wlCfg(), []float64{360})
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, want := range []string{"jobs/hr", "hadoop-64m", "flexmap", "p99", "goodput"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q:\n%s", want, out)
		}
	}
}

// TestWorkloadDefaultGridShape pins the published grid: at least three
// offered-load levels and the stock-vs-FlexMap engine pair, so the
// figure always shows the comparison the docs promise.
func TestWorkloadDefaultGridShape(t *testing.T) {
	if len(WorkloadLoads) < 3 {
		t.Fatalf("default grid has %d load levels, want >= 3", len(WorkloadLoads))
	}
	engines := workloadEngines()
	if len(engines) != 2 {
		t.Fatalf("engine pair has %d entries", len(engines))
	}
	if engines[0].String() != "hadoop-64m" || engines[1].String() != "flexmap" {
		t.Fatalf("unexpected engine pair %v", engines)
	}
}
