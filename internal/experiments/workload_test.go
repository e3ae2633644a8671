package experiments

import (
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
	if len(r.Loads) != 3 || len(r.Engines) != 2 {
		t.Fatalf("grid %v × %v, want 3 loads × 2 engines", r.Loads, r.Engines)
	}
	for _, load := range loads {
		for _, name := range r.Engines {
			if r.P50[load][name] <= 0 || r.P99[load][name] < r.P50[load][name] {
				t.Errorf("load %g %s: latency percentiles out of order (p50=%g p99=%g)",
					load, name, r.P50[load][name], r.P99[load][name])
			}
			if r.Goodput[load][name] <= 0 {
				t.Errorf("load %g %s: no goodput", load, name)
			}
			if r.Util[load][name] <= 0 || r.Util[load][name] > 1 {
				t.Errorf("load %g %s: utilization %g outside (0,1]", load, name, r.Util[load][name])
			}
			if r.MaxConcurrent[load][name] < 1 {
				t.Errorf("load %g %s: no concurrency recorded", load, name)
			}
		}
	}
	// Offered load must actually move the cluster: goodput at the top of
	// the grid is a multiple of goodput at the bottom (same 40 jobs
	// pushed through in a fraction of the span).
	for _, name := range r.Engines {
		if r.Goodput[720][name] <= r.Goodput[120][name] {
			t.Errorf("%s: goodput did not grow with offered load (%g -> %g)",
				name, r.Goodput[120][name], r.Goodput[720][name])
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
