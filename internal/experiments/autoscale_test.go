package experiments

import (
	"strings"
	"testing"
)

// TestAutoscaleGrid pins the experiment's headline claims: the grid is
// complete, static rows cost exactly the base fleet, elastic rows pay
// for the spares they used, and — the point of the experiment — Late
// Task Binding converts mid-job capacity into makespan strictly better
// than stock Hadoop does.
func TestAutoscaleGrid(t *testing.T) {
	r, err := Autoscale(Config{Scale: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(panel(t, r, "").Rows); rows != 9 {
		t.Fatalf("grid has %d rows, want 3 fleets × 3 engines", rows)
	}
	type row struct{ JCT, NodeHours float64 }
	cell := func(fleet, engine string) row {
		c := row{value(t, r, "", fleet+"/"+engine, "JCT(s)"), value(t, r, "", fleet+"/"+engine, "node-hours")}
		if c.JCT <= 0 || c.NodeHours <= 0 {
			t.Fatalf("degenerate cell %s/%s: %+v", fleet, engine, c)
		}
		return c
	}

	// Static fleets never touch the spare pool: all three engines must
	// bill exactly base-fleet-size × JCT.
	for _, eng := range autoscaleEngines() {
		c := cell("static", eng.String())
		want := float64(autoscaleBaseNodes) * c.JCT / 3600
		if !approxEqual(c.NodeHours, want, 1e-9) {
			t.Errorf("static/%s: node-hours %v != base fleet bill %v", eng.String(), c.NodeHours, want)
		}
		// Elastic fleets rent extra machines, so they must cost more.
		if s := cell("scheduled", eng.String()); s.NodeHours <= c.NodeHours {
			t.Errorf("%s: scheduled fleet (%v nh) not dearer than static (%v nh)",
				eng.String(), s.NodeHours, c.NodeHours)
		}
	}

	// The acceptance criterion: when capacity joins mid-job, Late Task
	// Binding alone (the no-vertical ablation) must degrade strictly
	// less than stock — equivalently, its scheduled/static makespan
	// ratio is strictly below stock's. Stock sized and launched its
	// splits before the spares existed, so the joins buy it almost
	// nothing; LTB sizes work at dispatch and rides the new nodes.
	stock := cell("scheduled", "hadoop-64m").JCT / cell("static", "hadoop-64m").JCT
	ltb := cell("scheduled", "flexmap[no-vertical]").JCT / cell("static", "flexmap[no-vertical]").JCT
	if ltb >= stock {
		t.Errorf("LTB scheduled/static ratio %.3f not strictly below stock's %.3f", ltb, stock)
	}
	// The full system keeps the LTB advantage.
	full := cell("scheduled", "flexmap").JCT / cell("static", "flexmap").JCT
	if full >= stock {
		t.Errorf("flexmap scheduled/static ratio %.3f not strictly below stock's %.3f", full, stock)
	}

	out := r.Render()
	for _, want := range []string{"fleet", "autoscaled", "node-hours", "flexmap[no-vertical]"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func approxEqual(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

// TestAutoscaleParallelIdentical: the worker count must not change a
// byte either (runJobs fans cells out across workers).
func TestAutoscaleParallelIdentical(t *testing.T) {
	a, err := Autoscale(Config{Scale: 16, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Autoscale(Config{Scale: 16, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Errorf("autoscale output differs between parallel=1 and parallel=8")
	}
}
