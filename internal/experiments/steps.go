package experiments

import "strings"

// Step is one entry of the paper's evaluation sequence: a name (the
// `paperfigs -exp` value) and the harness run that renders it.
type Step struct {
	Name string
	// OptIn marks a step that the full sequence (`paperfigs -exp all`)
	// skips. The full sequence reproduces the paper's figures, which are
	// defined on the flat network model and a static fleet, so its output
	// stays byte-identical whether or not the topology fabric and the
	// elastic membership layer exist.
	OptIn bool
	// Run executes the step's simulations under the Config passed to
	// Steps and returns the rendered text.
	Run func() (string, error)
}

// Steps returns the evaluation sequence under cfg, in `paperfigs -exp
// all` order with the opt-in steps last. The fig5 and fig6 steps of one
// returned slice share one Fig56 run per cluster: whichever runs first
// simulates the grid, and the other only renders it. The steps are not
// safe for concurrent use.
func Steps(cfg Config) []Step {
	render := func(r interface{ Render() string }, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
	var fig56 []*Fig56Result
	fig56Step := func(fig5 bool) func() (string, error) {
		return func() (string, error) {
			if fig56 == nil {
				var rs []*Fig56Result
				for _, name := range []string{"physical", "virtual"} {
					r, err := Fig56(cfg, name)
					if err != nil {
						return "", err
					}
					rs = append(rs, r)
				}
				fig56 = rs
			}
			parts := make([]string, len(fig56))
			for i, r := range fig56 {
				if fig5 {
					parts[i] = r.RenderFig5()
				} else {
					parts[i] = r.RenderFig6()
				}
			}
			return strings.Join(parts, "\n"), nil
		}
	}
	return []Step{
		{Name: "tableI", Run: func() (string, error) { return TableI(), nil }},
		{Name: "tableII", Run: func() (string, error) { return TableII(), nil }},
		{Name: "fig1", Run: func() (string, error) { return render(Fig1(cfg)) }},
		{Name: "fig2", Run: func() (string, error) { return render(Fig2(cfg)) }},
		{Name: "fig3", Run: func() (string, error) { return render(Fig3(cfg)) }},
		{Name: "fig5", Run: fig56Step(true)},
		{Name: "fig6", Run: fig56Step(false)},
		{Name: "overhead", Run: func() (string, error) { return render(Overhead(cfg)) }},
		{Name: "fig7", Run: func() (string, error) { return render(Fig7(cfg)) }},
		{Name: "fig8", Run: func() (string, error) { return render(Fig8(cfg)) }},
		{Name: "ablation", Run: func() (string, error) { return render(Ablation(cfg)) }},
		{Name: "skew", Run: func() (string, error) { return render(Skew(cfg)) }},
		{Name: "faults", Run: func() (string, error) { return render(FaultTolerance(cfg)) }},
		{Name: "workload", Run: func() (string, error) { return render(WorkloadFigure(cfg)) }},
		{Name: "netplace", OptIn: true, Run: func() (string, error) { return render(NetPlace(cfg)) }},
		{Name: "autoscale", OptIn: true, Run: func() (string, error) { return render(Autoscale(cfg)) }},
	}
}
