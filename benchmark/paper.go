package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"flexmap/internal/experiments"
)

// renderer is one figure of the paper sequence.
type renderer interface{ Render() string }

// paperText renders what `paperfigs -exp all -scale <scale> -seed <seed>
// -parallel 1` prints to stdout, calling the same experiments in the same
// order. Each figure's host time goes to the probe as
// experiments.<name>_s; the two tables run no simulation.
func paperText(seed, scale int64, p *probe) (string, error) {
	cfg := experiments.Config{Seed: seed, Scale: scale, Parallel: 1}
	cfg.Progress = func(done, total int) { p.sims++ }
	var out strings.Builder
	out.WriteString(experiments.TableI() + "\n" + experiments.TableII() + "\n")
	render := func(r renderer, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
	fig56 := func(fig5 bool) func() (string, error) {
		return func() (string, error) {
			var parts []string
			for _, name := range []string{"physical", "virtual"} {
				r, err := experiments.Fig56(cfg, name)
				if err != nil {
					return "", err
				}
				if fig5 {
					parts = append(parts, r.RenderFig5())
				} else {
					parts = append(parts, r.RenderFig6())
				}
			}
			return strings.Join(parts, "\n"), nil
		}
	}
	steps := []struct {
		name string
		fn   func() (string, error)
	}{
		{"fig1", func() (string, error) { return render(experiments.Fig1(cfg)) }},
		{"fig2", func() (string, error) { return render(experiments.Fig2(cfg)) }},
		{"fig3", func() (string, error) { return render(experiments.Fig3(cfg)) }},
		{"fig5", fig56(true)},
		{"fig6", fig56(false)},
		{"overhead", func() (string, error) { return render(experiments.Overhead(cfg)) }},
		{"fig7", func() (string, error) { return render(experiments.Fig7(cfg)) }},
		{"fig8", func() (string, error) { return render(experiments.Fig8(cfg)) }},
		{"ablation", func() (string, error) { return render(experiments.Ablation(cfg)) }},
		{"skew", func() (string, error) { return render(experiments.Skew(cfg)) }},
		{"faults", func() (string, error) { return render(experiments.FaultTolerance(cfg)) }},
		{"workload", func() (string, error) { return render(experiments.WorkloadFigure(cfg)) }},
	}
	for _, s := range steps {
		start := time.Now()
		text, err := s.fn()
		if err != nil {
			return "", fmt.Errorf("%s: %w", s.name, err)
		}
		p.add("experiments."+s.name+"_s", time.Since(start).Seconds())
		out.WriteString(text + "\n")
	}
	return out.String(), nil
}

// paperScale divides the paper's input sizes, as paperfigs -scale does,
// so that one sequence takes a few host seconds.
const paperScale = 8

// runPaper is the paper workload: the full sequence at paperScale.
func runPaper(_ string, seed int64, p *probe) (outcome, error) {
	p.begin()
	text, err := paperText(seed, paperScale, p)
	p.end()
	if err != nil {
		return outcome{}, err
	}
	sum := sha256.Sum256([]byte(text))
	return outcome{digest: hex.EncodeToString(sum[:])}, nil
}
