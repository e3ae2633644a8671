package experiments

import (
	"strings"
	"testing"
)

// TestFig56GridShared: within one Steps value, fig6 renders the grid fig5
// already ran and starts no simulation of its own.
func TestFig56GridShared(t *testing.T) {
	cfg := detCfg(1)
	sims := 0
	cfg.Progress = func(done, total int) { sims++ }
	steps := map[string]Step{}
	for _, s := range Steps(cfg) {
		steps[s.Name] = s
	}
	if _, err := steps["fig5"].Run(); err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(cfg.Benchmarks) * len(comparedEngines()); sims != want {
		t.Fatalf("fig5 ran %d simulations, want %d (two clusters)", sims, want)
	}
	sims = 0
	out, err := steps["fig6"].Run()
	if err != nil {
		t.Fatal(err)
	}
	if sims != 0 {
		t.Errorf("fig6 after fig5 ran %d simulations, want 0", sims)
	}
	for _, cluster := range []string{"physical", "virtual"} {
		if !strings.Contains(out, "Fig. 6 — job efficiency, "+cluster+" cluster") {
			t.Errorf("fig6 output lacks the %s cluster:\n%s", cluster, out)
		}
	}
}
