package experiments

// Step is one entry of the paper's evaluation sequence: a name (the
// `paperfigs -exp` value) and the harness run that tabulates it.
type Step struct {
	Name string
	// OptIn marks a step that the full sequence (`paperfigs -exp all`)
	// skips. The full sequence reproduces the paper's figures, which are
	// defined on the flat network model and a static fleet, so its output
	// stays byte-identical whether or not the topology fabric and the
	// elastic membership layer exist.
	OptIn bool
	// Run executes the step's simulations under the Config passed to
	// Steps and returns its table; Render prints it.
	Run func() (*Table, error)
}

// Steps returns the evaluation sequence under cfg, in `paperfigs -exp
// all` order with the opt-in steps last. The fig5 and fig6 steps of one
// returned slice share one Fig56 run per cluster: whichever runs first
// simulates the grid, and the other only reads it. Each of their tables
// holds one panel per cluster, named "physical" and "virtual". The steps
// are not safe for concurrent use.
func Steps(cfg Config) []Step {
	var fig56 []*Fig56Result
	fig56Step := func(fig5 bool) func() (*Table, error) {
		return func() (*Table, error) {
			if fig56 == nil {
				var rs []*Fig56Result
				for _, name := range []string{"physical", "virtual"} {
					r, err := Fig56(cfg, name)
					if err != nil {
						return nil, err
					}
					rs = append(rs, r)
				}
				fig56 = rs
			}
			out := &Table{}
			for _, r := range fig56 {
				t := r.Fig6
				if fig5 {
					t = r.Fig5
				}
				out.Panels = append(out.Panels, t.Panels...)
			}
			return out, nil
		}
	}
	return []Step{
		{Name: "tableI", Run: func() (*Table, error) { return tableI(), nil }},
		{Name: "tableII", Run: func() (*Table, error) { return tableII(), nil }},
		{Name: "fig1", Run: func() (*Table, error) { return Fig1(cfg) }},
		{Name: "fig2", Run: func() (*Table, error) { return Fig2(cfg) }},
		{Name: "fig3", Run: func() (*Table, error) { return Fig3(cfg) }},
		{Name: "fig5", Run: fig56Step(true)},
		{Name: "fig6", Run: fig56Step(false)},
		{Name: "overhead", Run: func() (*Table, error) { return Overhead(cfg) }},
		{Name: "fig7", Run: func() (*Table, error) { return Fig7(cfg) }},
		{Name: "fig8", Run: func() (*Table, error) { return Fig8(cfg) }},
		{Name: "ablation", Run: func() (*Table, error) { return Ablation(cfg) }},
		{Name: "skew", Run: func() (*Table, error) { return Skew(cfg) }},
		{Name: "faults", Run: func() (*Table, error) { return FaultTolerance(cfg) }},
		{Name: "workload", Run: func() (*Table, error) { return WorkloadFigure(cfg) }},
		{Name: "netplace", OptIn: true, Run: func() (*Table, error) { return NetPlace(cfg) }},
		{Name: "autoscale", OptIn: true, Run: func() (*Table, error) { return Autoscale(cfg) }},
	}
}
